//! Network deployment generators.
//!
//! The paper's evaluation layout is a **uniform deployment of N nodes in a
//! circle of radius `P·r`** with the broadcast source at the center and
//! `N = δ·π·(P·r)²` (§4). That layout is [`Deployment::disk`]. A square
//! grid layout (used by ref. 32 of the paper for the percolation-style
//! extension experiment) and a Poisson-count variant are also provided.

use crate::error::ConfigError;
use crate::geometry::Point2;
use crate::ids::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// How the node count of a disk deployment is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CountModel {
    /// Exactly `round(δ·π·(P·r)²)` nodes — the paper's setting.
    #[default]
    Fixed,
    /// `N ~ Poisson(δ·π·(P·r)²)`, the spatial-Poisson-process view.
    Poisson,
}

/// Uniform deployment in a disk of radius `P·r`, source at the center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskDeployment {
    /// The paper's integer parameter `P`: field radius in units of `r`.
    pub p_factor: u32,
    /// Communication radius `r` of every node.
    pub comm_radius: f64,
    /// Node density `δ` (expected nodes per unit area).
    pub density: f64,
    /// Whether the node count is fixed or Poisson-distributed.
    pub count_model: CountModel,
}

impl DiskDeployment {
    /// Creates the paper's deployment from `(P, r, δ)`.
    pub fn new(p_factor: u32, comm_radius: f64, density: f64) -> Self {
        assert!(p_factor >= 1, "P must be at least 1");
        assert!(comm_radius > 0.0, "communication radius must be positive");
        assert!(density > 0.0, "density must be positive");
        DiskDeployment {
            p_factor,
            comm_radius,
            density,
            count_model: CountModel::Fixed,
        }
    }

    /// Creates a deployment from `(P, r, ρ)` where `ρ = δ·π·r²` is the
    /// expected number of neighbors of an interior node — the density
    /// parameterization the paper sweeps (20..140).
    pub fn from_rho(p_factor: u32, comm_radius: f64, rho: f64) -> Self {
        assert!(rho > 0.0, "rho must be positive");
        let density = rho / (PI * comm_radius * comm_radius);
        DiskDeployment::new(p_factor, comm_radius, density)
    }

    /// Expected neighbors per interior node, `ρ = δ·π·r²`.
    pub fn rho(&self) -> f64 {
        self.density * PI * self.comm_radius * self.comm_radius
    }

    /// Field radius `P·r`.
    pub fn field_radius(&self) -> f64 {
        f64::from(self.p_factor) * self.comm_radius
    }

    /// Expected total node count `δ·π·(P·r)²` (including the source).
    pub fn expected_count(&self) -> f64 {
        self.density * PI * self.field_radius() * self.field_radius()
    }
}

/// Square-grid deployment with optional uniform jitter, used by the
/// percolation extension experiment (ref. 32 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridDeployment {
    /// Grid dimension: the layout is `side × side` nodes.
    pub side: u32,
    /// Distance between adjacent grid points.
    pub spacing: f64,
    /// Communication radius of every node.
    pub comm_radius: f64,
    /// Uniform jitter amplitude applied to each coordinate, as a fraction
    /// of `spacing` (0 = perfect grid).
    pub jitter: f64,
}

impl GridDeployment {
    /// Creates a `side × side` grid with the given spacing and radius.
    pub fn new(side: u32, spacing: f64, comm_radius: f64) -> Self {
        assert!(side >= 1, "grid side must be at least 1");
        assert!(spacing > 0.0 && comm_radius > 0.0);
        GridDeployment {
            side,
            spacing,
            comm_radius,
            jitter: 0.0,
        }
    }

    /// Sets the jitter fraction (clamped to [0, 0.5)).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 0.499);
        self
    }
}

/// Matérn-style cluster deployment: hotspots of high density over a sparse
/// uniform background — the "large spatio-temporal variation in node
/// density" the paper's §6 motivates its adaptive tuning proposal with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterDeployment {
    /// Field radius in units of `r` (as in the disk layout).
    pub p_factor: u32,
    /// Communication radius `r`.
    pub comm_radius: f64,
    /// Number of cluster parents, placed uniformly in the field.
    pub clusters: u32,
    /// Expected children per cluster (`Poisson`-distributed).
    pub children_mean: f64,
    /// Cluster radius (children are uniform in a disk of this radius
    /// around their parent, clipped to the field).
    pub cluster_radius: f64,
    /// Background density δ of the sparse uniform layer.
    pub background_density: f64,
}

impl ClusterDeployment {
    /// Creates a cluster deployment.
    pub fn new(
        p_factor: u32,
        comm_radius: f64,
        clusters: u32,
        children_mean: f64,
        cluster_radius: f64,
        background_density: f64,
    ) -> Self {
        assert!(p_factor >= 1 && comm_radius > 0.0);
        assert!(clusters >= 1 && children_mean >= 0.0 && cluster_radius > 0.0);
        assert!(background_density >= 0.0);
        ClusterDeployment {
            p_factor,
            comm_radius,
            clusters,
            children_mean,
            cluster_radius,
            background_density,
        }
    }

    /// Field radius `P·r`.
    pub fn field_radius(&self) -> f64 {
        f64::from(self.p_factor) * self.comm_radius
    }

    /// Expected total node count (source + background + parents + children).
    pub fn expected_count(&self) -> f64 {
        let field = self.field_radius();
        1.0 + self.background_density * std::f64::consts::PI * field * field
            + f64::from(self.clusters) * (1.0 + self.children_mean)
    }
}

/// A deployment specification: everything needed to (re)generate node
/// positions from a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// Uniform-in-disk deployment (the paper's layout).
    Disk(DiskDeployment),
    /// Square grid (extension experiments).
    Grid(GridDeployment),
    /// Clustered hotspots over a sparse background (§6 extension).
    Cluster(ClusterDeployment),
}

impl Deployment {
    /// Convenience constructor for the paper's disk layout from `(P, r, ρ)`.
    pub fn disk(p_factor: u32, comm_radius: f64, rho: f64) -> Self {
        Deployment::Disk(DiskDeployment::from_rho(p_factor, comm_radius, rho))
    }

    /// Communication radius of the deployment's nodes.
    pub fn comm_radius(&self) -> f64 {
        match self {
            Deployment::Disk(d) => d.comm_radius,
            Deployment::Grid(g) => g.comm_radius,
            Deployment::Cluster(c) => c.comm_radius,
        }
    }

    /// Samples node positions. Index 0 (the source) is at the field center.
    ///
    /// The result always contains at least the source node.
    pub fn sample(&self, seed: u64) -> DeployedNetwork {
        let mut rng = SmallRng::seed_from_u64(seed);
        let positions = match self {
            Deployment::Disk(d) => sample_disk(d, &mut rng),
            Deployment::Grid(g) => sample_grid(g, &mut rng),
            Deployment::Cluster(c) => sample_cluster(c, &mut rng),
        };
        DeployedNetwork {
            positions,
            comm_radius: self.comm_radius(),
            spec: *self,
            seed,
        }
    }
}

fn sample_disk(d: &DiskDeployment, rng: &mut SmallRng) -> Vec<Point2> {
    let expected = d.expected_count();
    let n = match d.count_model {
        CountModel::Fixed => expected.round() as usize,
        CountModel::Poisson => sample_poisson(expected, rng),
    }
    .max(1);
    let radius = d.field_radius();
    let mut pts = Vec::with_capacity(n);
    pts.push(Point2::ORIGIN); // the source
    for _ in 1..n {
        // Uniform in disk: radius ∝ √u.
        let u: f64 = rng.random();
        let theta: f64 = rng.random_range(0.0..(2.0 * PI));
        pts.push(Point2::from_polar(radius * u.sqrt(), theta));
    }
    pts
}

fn sample_grid(g: &GridDeployment, rng: &mut SmallRng) -> Vec<Point2> {
    let side = g.side as usize;
    let mut pts = Vec::with_capacity(side * side);
    // Center the grid on the origin and make the node nearest the center the
    // source by generating it first.
    let half = (g.side as f64 - 1.0) / 2.0;
    let mut cells: Vec<(usize, usize)> = (0..side)
        .flat_map(|i| (0..side).map(move |j| (i, j)))
        .collect();
    // Source cell: closest to center.
    cells.sort_by(|a, b| {
        let da = (a.0 as f64 - half).abs() + (a.1 as f64 - half).abs();
        let db = (b.0 as f64 - half).abs() + (b.1 as f64 - half).abs();
        da.total_cmp(&db)
    });
    for (i, j) in cells {
        let jx = if g.jitter > 0.0 {
            rng.random_range(-g.jitter..g.jitter) * g.spacing
        } else {
            0.0
        };
        let jy = if g.jitter > 0.0 {
            rng.random_range(-g.jitter..g.jitter) * g.spacing
        } else {
            0.0
        };
        pts.push(Point2::new(
            (i as f64 - half) * g.spacing + jx,
            (j as f64 - half) * g.spacing + jy,
        ));
    }
    pts
}

fn sample_cluster(c: &ClusterDeployment, rng: &mut SmallRng) -> Vec<Point2> {
    let field = c.field_radius();
    let mut pts = vec![Point2::ORIGIN]; // the source
                                        // Sparse uniform background.
    let n_bg = sample_poisson(c.background_density * PI * field * field, rng);
    for _ in 0..n_bg {
        let u: f64 = rng.random();
        let theta: f64 = rng.random_range(0.0..(2.0 * PI));
        pts.push(Point2::from_polar(field * u.sqrt(), theta));
    }
    // Cluster parents and their children.
    for _ in 0..c.clusters {
        let u: f64 = rng.random();
        let theta: f64 = rng.random_range(0.0..(2.0 * PI));
        let parent = Point2::from_polar(field * u.sqrt(), theta);
        pts.push(parent);
        let n_children = sample_poisson(c.children_mean, rng);
        for _ in 0..n_children {
            let u: f64 = rng.random();
            let theta: f64 = rng.random_range(0.0..(2.0 * PI));
            let child = Point2::new(
                parent.x + c.cluster_radius * u.sqrt() * theta.cos(),
                parent.y + c.cluster_radius * u.sqrt() * theta.sin(),
            );
            // Clip to the field by radial projection.
            let norm = child.norm();
            pts.push(if norm > field {
                Point2::new(child.x * field / norm, child.y * field / norm)
            } else {
                child
            });
        }
    }
    pts
}

/// Samples a Poisson(λ) variate. Uses Knuth's product method for small λ and
/// a normal approximation (adequate for node counts in the thousands) above.
fn sample_poisson(lambda: f64, rng: &mut SmallRng) -> usize {
    assert!(lambda >= 0.0);
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Box–Muller normal approximation with continuity correction.
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
        (lambda + z * lambda.sqrt()).round().max(0.0) as usize
    }
}

/// A concrete set of node positions produced by [`Deployment::sample`].
#[derive(Debug, Clone)]
pub struct DeployedNetwork {
    positions: Vec<Point2>,
    comm_radius: f64,
    spec: Deployment,
    seed: u64,
}

impl DeployedNetwork {
    /// Wraps an explicit list of node positions (index 0 is the source).
    ///
    /// This is the entry point for users with surveyed or trace-derived
    /// deployments rather than synthetic ones. The recorded spec is a
    /// degenerate disk deployment, retained only so `spec()` stays total.
    #[expect(
        clippy::panic,
        reason = "documented contract: entry points panic on invalid configs; try_from_positions() is the fallible path"
    )]
    pub fn from_positions(positions: Vec<Point2>, comm_radius: f64) -> Self {
        Self::try_from_positions(positions, comm_radius)
            .unwrap_or_else(|e| panic!("invalid explicit deployment: {e}"))
    }

    /// Fallible variant of [`from_positions`](Self::from_positions): an
    /// empty position list, a non-positive/non-finite radius, or a node
    /// count overflowing the `u32` id space is a [`ConfigError`] rather
    /// than a panic or a silent id truncation.
    pub fn try_from_positions(
        positions: Vec<Point2>,
        comm_radius: f64,
    ) -> Result<Self, ConfigError> {
        if positions.is_empty() {
            return Err(ConfigError::TooSmall {
                field: "positions",
                min: 1,
                value: 0,
            });
        }
        crate::topology::check_node_count(positions.len())?;
        if !(comm_radius > 0.0 && comm_radius.is_finite()) {
            return Err(ConfigError::NotPositive {
                field: "comm_radius",
                value: comm_radius,
            });
        }
        Ok(DeployedNetwork {
            positions,
            comm_radius,
            spec: Deployment::Disk(DiskDeployment::new(1, comm_radius, f64::MIN_POSITIVE)),
            seed: 0,
        })
    }

    /// Number of nodes, including the source.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True if the network contains only the source.
    pub fn is_empty(&self) -> bool {
        self.positions.len() <= 1
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point2 {
        self.positions[id.index()]
    }

    /// All positions, indexed by `NodeId`.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// The communication radius shared by all nodes (Assumption 1).
    pub fn comm_radius(&self) -> f64 {
        self.comm_radius
    }

    /// The specification this network was sampled from.
    pub fn spec(&self) -> &Deployment {
        &self.spec
    }

    /// The seed this network was sampled with.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_from_positions_validates() {
        let err = DeployedNetwork::try_from_positions(Vec::new(), 1.0).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ConfigError::TooSmall {
                field: "positions",
                ..
            }
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = DeployedNetwork::try_from_positions(vec![Point2::ORIGIN], bad).unwrap_err();
            assert!(
                matches!(err, crate::error::ConfigError::NotPositive { .. }),
                "radius {bad} gave {err:?}"
            );
        }
        let net = DeployedNetwork::try_from_positions(vec![Point2::ORIGIN], 2.0).unwrap();
        assert_eq!(net.len(), 1);
        assert_eq!(net.comm_radius(), 2.0);
    }

    #[test]
    fn disk_count_matches_formula() {
        // P=5, rho=20 → N = round(rho · P²) = 500.
        let d = DiskDeployment::from_rho(5, 1.0, 20.0);
        assert!((d.expected_count() - 500.0).abs() < 1e-9);
        let net = Deployment::Disk(d).sample(1);
        assert_eq!(net.len(), 500);
        assert_eq!(net.position(NodeId::SOURCE), Point2::ORIGIN);
    }

    #[test]
    fn rho_roundtrip() {
        let d = DiskDeployment::from_rho(5, 2.5, 77.0);
        assert!((d.rho() - 77.0).abs() < 1e-9);
        assert!((d.field_radius() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn all_nodes_inside_field() {
        let net = Deployment::disk(5, 1.0, 40.0).sample(7);
        let rmax = 5.0;
        for p in net.positions() {
            assert!(p.norm() <= rmax + 1e-9, "node outside field: {p:?}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let spec = Deployment::disk(5, 1.0, 20.0);
        let a = spec.sample(99);
        let b = spec.sample(99);
        assert_eq!(a.positions(), b.positions());
        let c = spec.sample(100);
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn disk_sampling_is_roughly_uniform() {
        // Half the nodes should fall within radius R/√2 (equal-area split).
        let net = Deployment::disk(5, 1.0, 140.0).sample(3);
        let r_half = 5.0 / 2.0f64.sqrt();
        let inner = net
            .positions()
            .iter()
            .filter(|p| p.norm() <= r_half)
            .count();
        let frac = inner as f64 / net.len() as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "inner-half fraction {frac} too far from 0.5"
        );
    }

    #[test]
    fn poisson_count_varies_but_centers_on_lambda() {
        let mut d = DiskDeployment::from_rho(5, 1.0, 20.0);
        d.count_model = CountModel::Poisson;
        let spec = Deployment::Disk(d);
        let counts: Vec<usize> = (0..50).map(|s| spec.sample(s).len()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!((mean - 500.0).abs() < 25.0, "Poisson mean {mean} off");
        assert!(counts.iter().any(|&c| c != counts[0]), "no variation");
    }

    #[test]
    fn poisson_small_lambda() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 4000;
        let mean = (0..n)
            .map(|_| sample_poisson(3.0, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn grid_layout_geometry() {
        let g = GridDeployment::new(5, 1.0, 1.5);
        let net = Deployment::Grid(g).sample(0);
        assert_eq!(net.len(), 25);
        // Source is the center cell of an odd grid → exactly at origin.
        assert_eq!(net.position(NodeId::SOURCE), Point2::ORIGIN);
        // All coordinates are multiples of spacing within the half-extent.
        for p in net.positions() {
            assert!(p.x.abs() <= 2.0 + 1e-9 && p.y.abs() <= 2.0 + 1e-9);
            assert!((p.x - p.x.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_jitter_perturbs_but_bounds() {
        let g = GridDeployment::new(4, 2.0, 1.5).with_jitter(0.25);
        let net = Deployment::Grid(g).sample(11);
        let perfect = Deployment::Grid(GridDeployment::new(4, 2.0, 1.5)).sample(11);
        let mut moved = 0;
        for (a, b) in net.positions().iter().zip(perfect.positions()) {
            let d = a.dist(b);
            assert!(d <= 2.0 * 0.25 * 2.0 * 2.0f64.sqrt() + 1e-9);
            if d > 0.0 {
                moved += 1;
            }
        }
        assert!(moved > 0, "jitter had no effect");
    }

    #[test]
    #[should_panic(expected = "density must be positive")]
    fn zero_density_rejected() {
        let _ = DiskDeployment::new(5, 1.0, 0.0);
    }

    #[test]
    fn cluster_deployment_shape() {
        let c = ClusterDeployment::new(5, 1.0, 8, 40.0, 1.0, 1.0);
        let spec = Deployment::Cluster(c);
        let net = spec.sample(3);
        // Count near the expectation: 1 + π·25 + 8·41 ≈ 407.
        let expect = c.expected_count();
        assert!(
            (net.len() as f64 - expect).abs() < expect * 0.25,
            "count {} vs expected {expect}",
            net.len()
        );
        // Everyone inside the field; source at center.
        assert_eq!(net.position(NodeId::SOURCE), Point2::ORIGIN);
        for p in net.positions() {
            assert!(p.norm() <= c.field_radius() + 1e-9);
        }
        // Deterministic per seed.
        assert_eq!(net.positions(), spec.sample(3).positions());
    }

    #[test]
    fn cluster_density_is_heterogeneous() {
        // Local degree variance should be much higher than for a uniform
        // disk of the same mean density.
        use crate::topology::Topology;
        let c = ClusterDeployment::new(5, 1.0, 6, 80.0, 1.0, 2.0);
        let net = Deployment::Cluster(c).sample(9);
        let topo = Topology::build(&net);
        let degs: Vec<f64> = (0..topo.len())
            .map(|u| topo.degree(NodeId(u as u32)) as f64)
            .collect();
        let mean = degs.iter().sum::<f64>() / degs.len() as f64;
        let var = degs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / degs.len() as f64;
        // For a uniform Poisson layout the degree distribution is ~Poisson
        // (variance ≈ mean); clusters should inflate variance well beyond.
        assert!(
            var > 3.0 * mean,
            "expected strong heterogeneity: var {var:.1} vs mean {mean:.1}"
        );
    }
}
