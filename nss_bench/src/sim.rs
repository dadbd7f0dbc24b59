//! The simulation workloads: the paper's replicated sweep (`sim_sweep`)
//! and the million-node flood (`sim_scale`).

use crate::report::{peak_rss_mb, put, Checks, Values};
use crate::schedule::mix;
use crate::stats::{median, sorted, tail};
use crate::tracer::{layers, Layer, Span, Tracer};
use crate::{Scale, THREADS};
use nss_analysis::optimize::ProbabilitySweep;
use nss_analysis::sweep::DensitySweep;
use nss_model::deployment::Deployment;
use nss_model::rng::{SeedFactory, Stream};
use nss_model::topology::Topology;
use nss_obs::manifest::fnv64;
use nss_sim::executor::Executor;
use nss_sim::runner::{ReplicatedTraces, Replication};
use nss_sim::slotted::GossipConfig;
use nss_sim::trace::SimTrace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fig. 8's latency budget (phases).
const LATENCY_BUDGET: f64 = 5.0;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Floods per `sim_scale` run, all on the last set-up's topology.
const FLOODS: usize = 5;

/// `sim_scale`'s density.
const SCALE_RHO: f64 = 140.0;

/// The committed Fig. 8(a) table that seed 2005 must reproduce.
const FIG8_CSV: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../results/fig08a_sim_reachability.csv"
);

/// The seed `repro fig8` uses for the committed figures.
pub const PAPER_SEED: u64 = 2005;

/// The (ρ × p) grid of `sim_sweep`.
#[derive(Debug, Clone)]
pub struct Grid {
    rhos: Vec<f64>,
    probs: Vec<f64>,
    runs: u32,
}

impl Grid {
    /// The paper grid (7 × 20 cells of 30 runs) or the smoke grid.
    pub fn new(scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid {
                rhos: DensitySweep::paper_rhos(),
                probs: ProbabilitySweep::sim_grid(),
                runs: 30,
            },
            Scale::Smoke => Grid {
                rhos: vec![20.0, 60.0],
                probs: vec![0.2, 1.0],
                runs: 4,
            },
        }
    }

    /// Every `(ri, pi)`, densities interleaved (p outer, ρ inner). A
    /// cell's result depends on its indices alone, so the order changes
    /// nothing but when each density runs: interleaved, a slow spell of
    /// the host touches every density a little instead of one a lot.
    fn cells(&self) -> Vec<(usize, usize)> {
        (0..self.probs.len())
            .flat_map(|pi| (0..self.rhos.len()).map(move |ri| (ri, pi)))
            .collect()
    }

    /// Cell `(ri, pi)` exactly as `repro`'s simulated sweep builds it, on
    /// [`THREADS`] workers.
    fn replication(&self, seed: u64, ri: usize, pi: usize) -> Replication {
        let cell_seed = seed.wrapping_add((ri as u64) << 32).wrapping_add(pi as u64);
        Replication::paper(
            Deployment::disk(5, 1.0, self.rhos[ri]),
            GossipConfig::pb_cam(self.probs[pi]),
            cell_seed,
        )
        .with_runs(self.runs)
        .with_threads(THREADS)
    }

    /// The warm-up cell run before the grid: the densest ρ at the lowest
    /// p, on a seed stream the grid never uses.
    fn warmup(&self, seed: u64, i: usize) -> Replication {
        let mut rep = self.replication(seed, self.rhos.len() - 1, 0);
        rep.master_seed = mix(seed, 0x5741_524d, i as u64); // "WARM"
        rep
    }

    /// Workload settings for the provenance block.
    pub fn settings(&self) -> Vec<(String, String)> {
        vec![
            ("rhos".to_string(), format!("{:?}", self.rhos)),
            ("probs".to_string(), format!("{:?}", self.probs)),
            ("runs".to_string(), self.runs.to_string()),
            ("threads".to_string(), THREADS.to_string()),
        ]
    }
}

/// A content hash of everything a trace records per phase and node.
fn digest(t: &SimTrace) -> u64 {
    let mut bytes = Vec::with_capacity(8 + 4 * t.first_rx_phase.len() + 24 * t.phases());
    bytes.extend_from_slice(&(t.n_total as u64).to_le_bytes());
    for x in &t.first_rx_phase {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    for x in &t.broadcasts_by_phase {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    for x in t.deliveries_by_phase.iter().chain(&t.collisions_by_phase) {
        bytes.extend_from_slice(&x.to_le_bytes());
    }
    fnv64(&bytes)
}

/// One hash over a cell's traces, in replication order.
fn cell_digest(traces: &[SimTrace]) -> u64 {
    let bytes: Vec<u8> = traces
        .iter()
        .flat_map(|t| digest(t).to_le_bytes())
        .collect();
    fnv64(&bytes)
}

/// Replication `k` of `rep` from the public calls, deriving every seed
/// from [`SeedFactory`] exactly as `Replication::run` does.
fn replicate_one(rep: &Replication, k: u64) -> SimTrace {
    let factory = SeedFactory::new(rep.master_seed);
    let net = rep.deployment.sample(factory.seed(Stream::Deployment, k));
    let topo = Topology::build(&net);
    Executor::new(&topo)
        .gossip(rep.gossip)
        .faults(rep.faults.clone())
        .faults_seed(factory.seed(Stream::Faults, k))
        .threads(rep.intra_threads)
        .run(factory.seed(Stream::Protocol, k))
}

/// What the checks need from one finished cell.
struct Cell {
    ri: usize,
    pi: usize,
    /// Fig. 8 mean and std of reachability within 5 phases.
    reach: (f64, f64),
    /// Every per-run reachability lies in [0, 1].
    in_range: bool,
    digest: u64,
    /// `(k, digest of run k)` for the independent spot check.
    spot: (u64, u64),
}

impl Cell {
    fn of(ri: usize, pi: usize, out: &ReplicatedTraces, spot_k: u64) -> Cell {
        let s = out.reachability_at_latency(LATENCY_BUDGET);
        let in_range = out.series().iter().all(|p| {
            let r = p.reachability_at_latency(LATENCY_BUDGET);
            (0.0..=1.0).contains(&r) && (0.0..=1.0).contains(&p.final_reachability())
        });
        Cell {
            ri,
            pi,
            reach: (s.mean, s.std_dev),
            in_range,
            digest: cell_digest(&out.traces),
            spot: (spot_k, digest(&out.traces[spot_k as usize])),
        }
    }
}

/// The committed Fig. 8(a) cells as printed: `[pi][ri] = (mean, std)`.
fn fig8_reference() -> Result<Vec<Vec<(String, String)>>, String> {
    let text = std::fs::read_to_string(FIG8_CSV).map_err(|e| format!("{FIG8_CSV}: {e}"))?;
    Ok(text
        .lines()
        .skip(1)
        .map(|row| {
            let fields: Vec<&str> = row.split(',').skip(1).collect();
            fields
                .chunks(2)
                .map(|c| {
                    (
                        c[0].to_string(),
                        c.get(1).copied().unwrap_or("").to_string(),
                    )
                })
                .collect()
        })
        .collect())
}

/// The independent check of a cell's traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verify {
    /// Cells came from `Replication::run`: rebuild one run per cell from
    /// the public calls and compare digests.
    SpotRun,
    /// Cells came from the traced loop: compare each cell's digest with
    /// the real `Replication::run`.
    Replication,
}

/// Checks every cell: reach in [0, 1], [`Verify`], and at the paper seed
/// the committed Fig. 8(a) CSV to 6 decimals.
fn check_cells(grid: &Grid, seed: u64, scale: Scale, cells: &[Cell], verify: Verify) -> Checks {
    let reference = (seed == PAPER_SEED && scale == Scale::Full).then(fig8_reference);
    let mut checks = Checks::default();
    for cell in cells {
        let rep = grid.replication(seed, cell.ri, cell.pi);
        let at = format!("cell rho={} p={}", grid.rhos[cell.ri], grid.probs[cell.pi]);
        let mut failure = None;
        if !cell.in_range {
            failure = Some(format!("{at}: reachability outside [0, 1]"));
        }
        match verify {
            Verify::SpotRun => {
                let (k, want) = cell.spot;
                if digest(&replicate_one(&rep, k)) != want {
                    failure = Some(format!("{at}: run {k} from public calls differs"));
                }
            }
            Verify::Replication => {
                if cell_digest(&rep.run().traces) != cell.digest {
                    failure = Some(format!("{at}: traced loop differs from Replication::run"));
                }
            }
        }
        match &reference {
            Some(Ok(table)) => {
                let got = (
                    format!("{:.6}", cell.reach.0),
                    format!("{:.6}", cell.reach.1),
                );
                if table.get(cell.pi).and_then(|row| row.get(cell.ri)) != Some(&got) {
                    failure = Some(format!("{at}: {got:?} differs from {FIG8_CSV}"));
                }
            }
            Some(Err(e)) => failure = Some(format!("{at}: no reference table ({e})")),
            None => {}
        }
        checks.op(failure);
    }
    checks
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs the warm-up cell [`SETUPS`] times; returns the set-up times.
fn sweep_setup(grid: &Grid, seed: u64) -> Vec<f64> {
    (0..SETUPS)
        .map(|i| {
            let rep = grid.warmup(seed, i);
            let t0 = Instant::now();
            black_box(rep.run());
            secs(t0)
        })
        .collect()
}

/// The grid's time, estimated robustly from `(ri, seconds)` per cell:
/// for each density, its number of cells times their median time.
fn grid_seconds(times: &[(usize, f64)]) -> f64 {
    let mut rows: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(ri, s) in times {
        rows.entry(ri).or_default().push(s);
    }
    rows.values().map(|t| t.len() as f64 * median(t)).sum()
}

/// `sim_sweep` with tracing off: `Replication::run` on every cell.
pub fn sweep(seed: u64, scale: Scale) -> (Checks, Values) {
    let grid = Grid::new(scale);
    let setups = sweep_setup(&grid, seed);
    let mut times = Vec::new();
    let mut nodes = 0u64;
    let mut cells = Vec::new();
    for (ri, pi) in grid.cells() {
        let rep = grid.replication(seed, ri, pi);
        let t0 = Instant::now();
        let out = rep.run();
        times.push((ri, secs(t0)));
        nodes += out.traces.iter().map(|t| t.n_total as u64).sum::<u64>();
        let cell = (ri * grid.probs.len() + pi) as u64;
        let spot_k = mix(seed, 0x5350_4f54, cell) % u64::from(grid.runs); // "SPOT"
        cells.push(Cell::of(ri, pi, &out, spot_k));
    }
    let checks = check_cells(&grid, seed, scale, &cells, Verify::SpotRun);

    let mut v = Values::new();
    put(&mut v, "setup_s", median(&setups), SETUPS as u64);
    put(
        &mut v,
        "throughput_per_s",
        nodes as f64 / grid_seconds(&times),
        nodes,
    );
    let cell_ms: Vec<f64> = sorted(&times.iter().map(|t| t.1 * 1e3).collect::<Vec<_>>());
    put(
        &mut v,
        "latency_p50_ms",
        median(&cell_ms),
        cell_ms.len() as u64,
    );
    put(
        &mut v,
        "latency_tail_ms",
        tail(&cell_ms).1,
        cell_ms.len() as u64,
    );
    put(&mut v, "peak_rss_mb", peak_rss_mb(), 1);
    (checks, v)
}

/// Per-run numbers the spans do not carry.
#[derive(Debug, Default, Clone, Copy)]
struct RunTally {
    nodes: u64,
    adjacency_bytes: u64,
    /// Σ degree over every node (2 × edges).
    degree_sum: f64,
    node_phases: u64,
    phases: u64,
    broadcasts: u64,
    deliveries: u64,
    collisions: u64,
}

impl RunTally {
    fn add_build(&mut self, topo: &Topology) {
        self.nodes += topo.len() as u64;
        self.adjacency_bytes += topo.adjacency_bytes() as u64;
        self.degree_sum += topo.mean_degree() * topo.len() as f64;
    }

    fn add_run(&mut self, trace: &SimTrace) {
        self.node_phases += (trace.n_total * trace.phases()) as u64;
        self.phases += trace.phases() as u64;
        self.broadcasts += trace.total_broadcasts();
        self.deliveries += trace.total_deliveries();
        self.collisions += trace.total_collisions();
    }

    fn merge(&mut self, o: &RunTally) {
        self.nodes += o.nodes;
        self.adjacency_bytes += o.adjacency_bytes;
        self.degree_sum += o.degree_sum;
        self.node_phases += o.node_phases;
        self.phases += o.phases;
        self.broadcasts += o.broadcasts;
        self.deliveries += o.deliveries;
        self.collisions += o.collisions;
    }
}

/// The `model` and `sim` layer metrics from the spans and tallies.
fn sim_layer_values(v: &mut Values, layers: &[Layer], t: &RunTally) {
    let get = |name: &str| layers.iter().find(|l| l.name == name);
    let busy_s = |name: &str| get(name).map_or(0.0, |l| l.busy_ns as f64 / 1e9);
    let count = |name: &str| get(name).map_or(0, |l| l.count as u64);
    let ms =
        |name: &str, f: &dyn Fn(&[f64]) -> f64| get(name).map_or(0.0, |l| f(&l.durations_ns) / 1e6);
    let p50 = |d: &[f64]| median(d);
    let tl = |d: &[f64]| tail(d).1;
    put(
        v,
        "model.sample.busy_s",
        busy_s("model.sample"),
        count("model.sample"),
    );
    let builds = count("model.topology.build");
    put(
        v,
        "model.topology.build.busy_s",
        busy_s("model.topology.build"),
        builds,
    );
    put(
        v,
        "model.topology.build.p50_ms",
        ms("model.topology.build", &p50),
        builds,
    );
    put(
        v,
        "model.topology.build.tail_ms",
        ms("model.topology.build", &tl),
        builds,
    );
    put(
        v,
        "model.topology.nodes_per_s",
        t.nodes as f64 / busy_s("model.topology.build"),
        t.nodes,
    );
    put(
        v,
        "model.topology.adjacency_bytes",
        t.adjacency_bytes as f64,
        builds,
    );
    put(
        v,
        "model.topology.degree_mean",
        t.degree_sum / t.nodes as f64,
        t.nodes,
    );
    let runs = count("sim.run");
    put(v, "sim.run.busy_s", busy_s("sim.run"), runs);
    put(v, "sim.run.p50_ms", ms("sim.run", &p50), runs);
    put(v, "sim.run.tail_ms", ms("sim.run", &tl), runs);
    put(
        v,
        "sim.node_phases_per_s",
        t.node_phases as f64 / busy_s("sim.run"),
        t.node_phases,
    );
    put(v, "sim.phases", t.phases as f64, runs);
    put(v, "sim.broadcasts", t.broadcasts as f64, runs);
    put(v, "sim.deliveries", t.deliveries as f64, runs);
    put(v, "sim.collisions", t.collisions as f64, runs);
    let attempts = t.deliveries + t.collisions;
    put(
        v,
        "sim.delivery_ratio",
        t.deliveries as f64 / attempts.max(1) as f64,
        attempts,
    );
}

/// Σ of the sample, build and run spans.
fn leaf_busy_ns(layers: &[Layer]) -> u64 {
    layers
        .iter()
        .filter(|l| matches!(l.name, "model.sample" | "model.topology.build" | "sim.run"))
        .map(|l| l.busy_ns)
        .sum()
}

/// One cell of the traced loop: the cursor protocol of
/// `Replication::run` on [`THREADS`] workers, each replication rebuilt
/// from public calls with a span around sample, build and run.
fn traced_cell(
    tracer: &Tracer,
    cell_span: u64,
    rep: &Replication,
    ci: u64,
) -> (Vec<SimTrace>, RunTally) {
    let factory = SeedFactory::new(rep.master_seed);
    let n = rep.replications as usize;
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(SimTrace, RunTally)>>> = Mutex::new(vec![None; n]);
    let (factory, cursor, results) = (&factory, &cursor, &results);
    std::thread::scope(|scope| {
        for w in 0..THREADS {
            scope.spawn(move || {
                tracer.span("sim.runner.worker", cell_span, w as u64, |worker| loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= n {
                        break;
                    }
                    let request = ci * n as u64 + k as u64;
                    let out = tracer.span("replication", worker, request, |id| {
                        let mut tally = RunTally::default();
                        let net = tracer.span("model.sample", id, request, |_| {
                            rep.deployment
                                .sample(factory.seed(Stream::Deployment, k as u64))
                        });
                        let topo = tracer.span("model.topology.build", id, request, |_| {
                            Topology::build(&net)
                        });
                        tally.add_build(&topo);
                        let trace = tracer.span("sim.run", id, request, |_| {
                            Executor::new(&topo)
                                .gossip(rep.gossip)
                                .faults(rep.faults.clone())
                                .faults_seed(factory.seed(Stream::Faults, k as u64))
                                .threads(rep.intra_threads)
                                .run(factory.seed(Stream::Protocol, k as u64))
                        });
                        tally.add_run(&trace);
                        (trace, tally)
                    });
                    results.lock().expect("a replication worker panicked")[k] = Some(out);
                });
            });
        }
    });
    let mut total = RunTally::default();
    let traces = std::mem::take(&mut *results.lock().expect("a replication worker panicked"))
        .into_iter()
        .map(|slot| {
            let (trace, tally) = slot.expect("the cursor hands out every replication");
            total.merge(&tally);
            trace
        })
        .collect();
    (traces, total)
}

/// Runner metrics of the traced sweep: per-cell worker imbalance (max
/// over mean replication busy time, weighted by cell), the grid time not
/// covered by replications, and the share of worker time the sample,
/// build and run layers account for.
fn runner_values(v: &mut Values, spans: &[Span], layers: &[Layer], grid_s: f64) {
    let mut busy_by_worker: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "replication") {
        *busy_by_worker.entry(s.parent).or_insert(0) += s.dur_ns();
    }
    let mut workers_by_cell: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut worker_ns = 0u64;
    for s in spans.iter().filter(|s| s.name == "sim.runner.worker") {
        worker_ns += s.dur_ns();
        workers_by_cell
            .entry(s.parent)
            .or_default()
            .push(busy_by_worker.get(&s.id).copied().unwrap_or(0));
    }
    let (max_sum, mean_sum) = workers_by_cell.values().fold((0.0, 0.0), |(mx, mn), busy| {
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
        (mx + max, mn + mean)
    });
    let busy_s = busy_by_worker.values().sum::<u64>() as f64 / 1e9;
    let cells = workers_by_cell.len() as u64;
    put(
        v,
        "sim.runner.overhead_s",
        grid_s - busy_s / THREADS as f64,
        cells,
    );
    put(v, "sim.runner.imbalance", max_sum / mean_sum, cells);
    put(
        v,
        "sim.layer_coverage",
        leaf_busy_ns(layers) as f64 / worker_ns as f64,
        cells,
    );
}

/// `sim_sweep` traced: the replication loop of `Replication::run`
/// rebuilt from public calls, then every cell's digest compared with the
/// real `Replication::run`.
pub fn sweep_traced(seed: u64, scale: Scale, tracer: &Tracer) -> (Checks, Values) {
    let grid = Grid::new(scale);
    let root = tracer.start("sim_sweep", crate::tracer::ROOT, seed);
    tracer.span("setup", root.id(), 0, |_| sweep_setup(&grid, seed));
    let mut cells = Vec::new();
    let mut total = RunTally::default();
    let mut times = Vec::new();
    for (ci, (ri, pi)) in grid.cells().into_iter().enumerate() {
        let rep = grid.replication(seed, ri, pi);
        let open = tracer.start("cell", root.id(), ci as u64);
        let (traces, tally) = traced_cell(tracer, open.id(), &rep, ci as u64);
        times.push((ri, tracer.end(open) as f64 / 1e9));
        total.merge(&tally);
        cells.push(Cell::of(ri, pi, &ReplicatedTraces { traces }, 0));
    }
    let checks = tracer.span("verify", root.id(), 0, |_| {
        check_cells(&grid, seed, scale, &cells, Verify::Replication)
    });
    tracer.end(root);

    let (spans, _) = tracer.snapshot();
    let layers = layers(&spans);
    let mut v = Values::new();
    sim_layer_values(&mut v, &layers, &total);
    runner_values(&mut v, &spans, &layers, times.iter().map(|t| t.1).sum());
    put(
        &mut v,
        "trace.throughput_per_s",
        total.nodes as f64 / grid_seconds(&times),
        total.nodes,
    );
    (checks, v)
}

/// `sim_scale`'s field: ρ = 140 on the paper's disk at P = 85
/// (N = 1,011,500), or P = 6 at smoke scale.
fn scale_deployment(scale: Scale) -> Deployment {
    let p_factor = match scale {
        Scale::Full => 85,
        Scale::Smoke => 6,
    };
    Deployment::disk(p_factor, 1.0, SCALE_RHO)
}

/// Workload settings of `sim_scale` for the provenance block.
pub fn scale_settings(scale: Scale) -> Vec<(String, String)> {
    vec![
        (
            "deployment".to_string(),
            format!("{:?}", scale_deployment(scale)),
        ),
        ("setups".to_string(), SETUPS.to_string()),
        ("floods".to_string(), FLOODS.to_string()),
        ("threads".to_string(), THREADS.to_string()),
    ]
}

/// `f` inside a span named `name` when tracing, bare otherwise.
fn within<T>(
    ctx: Option<(&Tracer, u64)>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match ctx {
        Some((tracer, parent)) => tracer.span(name, parent, request, |_| f()),
        None => f(),
    }
}

/// `sim_scale`: [`SETUPS`] times sample the field and build its CSR with
/// [`THREADS`] workers (the set-up), then flood the last build
/// [`FLOODS`] times on the sharded engine with [`THREADS`] workers, all
/// on the same seed. Traced when `tracer` is given.
pub fn scale(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> (Checks, Values) {
    let deployment = scale_deployment(scale);
    let root = tracer.map(|t| t.start("sim_scale", crate::tracer::ROOT, seed));
    let root_id = root.as_ref().map_or(crate::tracer::ROOT, |r| r.id());
    let mut checks = Checks::default();
    let mut total = RunTally::default();
    let mut setups = Vec::new();
    let mut build0 = None;
    let mut topo = None;
    for r in 0..SETUPS as u64 {
        // Free the previous CSR before building the next.
        drop(topo.take());
        let setup = tracer.map(|t| (t, t.start("setup", root_id, r)));
        let ctx = setup.as_ref().map(|(t, open)| (*t, open.id()));
        let t0 = Instant::now();
        let net = within(ctx, "model.sample", r, || deployment.sample(seed));
        let built = within(ctx, "model.topology.build", r, || {
            Topology::try_build_with_threads(&net, THREADS)
        });
        let elapsed = secs(t0);
        if let Some((t, open)) = setup {
            t.end(open);
        }
        match built {
            Ok(built) => {
                setups.push(elapsed);
                total.add_build(&built);
                let (dmin, dmean, dmax) = built.degree_stats();
                let this = (dmin, dmean.to_bits(), dmax, built.adjacency_bytes());
                let reference = *build0.get_or_insert(this);
                checks.op((this != reference)
                    .then(|| format!("build {r}: degree stats differ from build 0")));
                topo = Some(built);
            }
            Err(e) => checks.op(Some(format!("build {r}: {e}"))),
        }
    }
    let Some(topo) = topo else {
        return (checks, Values::new());
    };
    let mut floods = Vec::new();
    let mut flood0 = None;
    for f in 0..FLOODS as u64 {
        let t0 = Instant::now();
        let trace = within(tracer.map(|t| (t, root_id)), "sim.run", f, || {
            Executor::new(&topo)
                .gossip(GossipConfig::flooding_cam())
                .sharded(THREADS)
                .run(seed)
        });
        floods.push(secs(t0));
        total.add_run(&trace);
        let this = digest(&trace);
        let reference = *flood0.get_or_insert(this);
        let reach = trace.final_reachability();
        checks.op(if reach <= 0.95 {
            Some(format!("flood {f}: reachability {reach} not above 0.95"))
        } else if this != reference {
            Some(format!("flood {f}: trace digest differs from flood 0"))
        } else {
            None
        });
    }
    let root_ns = match (tracer, root) {
        (Some(t), Some(root)) => t.end(root),
        _ => 0,
    };

    let mut v = Values::new();
    let flood_s = median(&floods);
    let n = floods.len() as u64;
    match tracer {
        None => {
            let flood_ms: Vec<f64> = sorted(&floods).iter().map(|s| s * 1e3).collect();
            put(&mut v, "setup_s", median(&setups), setups.len() as u64);
            put(&mut v, "throughput_per_s", topo.len() as f64 / flood_s, n);
            put(&mut v, "latency_p50_ms", median(&flood_ms), n);
            put(&mut v, "latency_tail_ms", tail(&flood_ms).1, n);
            put(&mut v, "peak_rss_mb", peak_rss_mb(), 1);
        }
        Some(t) => {
            let (spans, _) = t.snapshot();
            let layers = layers(&spans);
            sim_layer_values(&mut v, &layers, &total);
            put(
                &mut v,
                "sim.layer_coverage",
                leaf_busy_ns(&layers) as f64 / root_ns as f64,
                1,
            );
            put(
                &mut v,
                "trace.throughput_per_s",
                topo.len() as f64 / flood_s,
                n,
            );
        }
    }
    (checks, v)
}
