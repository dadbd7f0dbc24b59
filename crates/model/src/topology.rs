//! Unit-disk communication graph (Assumptions 1–2 of the paper).
//!
//! The deployment's symmetric graph `G(V, E)` where `(u, v) ∈ E` iff
//! `dist(u, v) ≤ r`. Adjacency is stored in CSR form for cache-friendly
//! iteration — neighbor scans dominate the simulator's inner loop.

use crate::deployment::DeployedNetwork;
use crate::error::ConfigError;
use crate::geometry::Point2;
use crate::ids::NodeId;
use crate::par;
use crate::spatial::{ascending_in, GridIndex};
use std::collections::VecDeque;
use std::ops::Range;

/// Below this node count the builder stays sequential: thread spawn/join
/// overhead exceeds the grid-query work itself.
const PAR_BUILD_THRESHOLD: usize = 8_192;

/// Node ids are `u32` and [`NodeId`]-space reserves `u32::MAX` as a
/// sentinel (`NEVER`, BFS "unvisited"), so a deployment may hold at most
/// `u32::MAX - 1` nodes.
const MAX_NODES: usize = u32::MAX as usize - 1;

/// Rejects node counts that would overflow `u32` node ids.
pub(crate) fn check_node_count(n: usize) -> Result<(), ConfigError> {
    if n > MAX_NODES {
        return Err(ConfigError::Exceeds {
            field: "node count",
            bound: "u32 id space",
            value: n as f64,
            limit: MAX_NODES as f64,
        });
    }
    Ok(())
}

/// Rejects adjacency lengths that would overflow the `u32` CSR offsets.
fn check_adjacency_len(total: u64) -> Result<(), ConfigError> {
    if total > u64::from(u32::MAX) {
        return Err(ConfigError::Exceeds {
            field: "adjacency entries",
            bound: "u32 CSR offset space",
            value: total as f64,
            limit: f64::from(u32::MAX),
        });
    }
    Ok(())
}

/// Immutable unit-disk topology built from a [`DeployedNetwork`].
#[derive(Debug, Clone)]
pub struct Topology {
    comm_radius: f64,
    /// CSR adjacency: neighbors of `u` are `adj[starts[u]..starts[u+1]]`.
    starts: Vec<u32>,
    adj: Vec<u32>,
    /// The spatial index; it also holds every node's position.
    index: GridIndex,
}

impl Topology {
    /// Builds the unit-disk graph. O(N·ρ) expected time via the grid index.
    ///
    /// Panics on invalid deployments (non-positive radius, id-space
    /// overflow); [`Topology::try_build`] is the fallible path.
    #[expect(
        clippy::panic,
        reason = "documented contract: entry points panic on invalid configs; try_build() is the fallible path"
    )]
    pub fn build(net: &DeployedNetwork) -> Self {
        Self::try_build(net)
            .unwrap_or_else(|e| panic!("invalid deployment for Topology::build: {e}"))
    }

    /// Fallible build with automatic thread-count selection (sequential
    /// below `PAR_BUILD_THRESHOLD` (8192) nodes, all cores above).
    pub fn try_build(net: &DeployedNetwork) -> Result<Self, ConfigError> {
        Self::try_build_with_threads(net, 0)
    }

    /// Builds the unit-disk graph with a two-pass counting CSR layout,
    /// sharding the grid-query passes over `threads` workers (0 = pick
    /// automatically). Each node's neighbor row is cut, in ascending id
    /// order, from its cell's candidate block, sorted once per cell, so the
    /// result is bit-identical at any thread count.
    pub fn try_build_with_threads(
        net: &DeployedNetwork,
        threads: usize,
    ) -> Result<Self, ConfigError> {
        let positions = net.positions();
        let r = net.comm_radius();
        let n = positions.len();
        check_node_count(n)?;
        let index = GridIndex::build(positions, r)?;

        let nworkers = if threads == 0 && n < PAR_BUILD_THRESHOLD {
            1
        } else {
            par::workers(threads, n)
        };

        // Both passes scan cell blocks as one contiguous run of the index's
        // cell-ordered coordinates per grid row (pass 1 each node's stencil
        // of `GridIndex::for_each_row`, pass 2 the union of a cell's), and
        // neither branches on the distance test: pass 1 sums it, pass 2
        // advances a cursor by it. Every stencil cell is a candidate, and
        // `dist_sq` and `<=` are those of `for_each_within`, so rows hold
        // exactly the unit-disk neighbors.
        let r2 = r * r;

        // Pass 1: count each node's degree (disjoint chunks of `degrees`).
        let chunk = n.div_ceil(nworkers).max(1);
        let mut degrees = vec![0u32; n];
        let units: Vec<_> = degrees.chunks_mut(chunk).enumerate().collect();
        par::map_units("topo.count", units, |(ci, out)| {
            for (j, d) in out.iter_mut().enumerate() {
                let me = (ci * chunk + j) as u32;
                let p = positions[me as usize];
                index.for_each_row(&p, r, |ids, xs, ys| {
                    *d += ids
                        .iter()
                        .zip(xs)
                        .zip(ys)
                        .map(|((&id, &x), &y)| {
                            u32::from((Point2::new(x, y).dist_sq(&p) <= r2) & (id != me))
                        })
                        .sum::<u32>();
                });
            }
        });

        // Prefix-sum the degrees into CSR row offsets, guarding overflow.
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        let mut total = 0u64;
        for &d in &degrees {
            total += u64::from(d);
            check_adjacency_len(total)?;
            starts.push(total as u32);
        }

        // Pass 2: fill the rows cell by cell. The chunk's members in one
        // cell share a candidate block, the union of their stencils (not
        // the centre cell ± 1: a stencil can reach two cells away at
        // exactly distance r). The block's ids are sorted once and its
        // coordinates gathered into that order, so each member's cursor
        // keeps its row in ascending id order at any thread count, with no
        // per-row sort. The row is copied into its disjoint sub-slice of
        // the adjacency buffer.
        let mut adj = vec![0u32; total as usize];
        let mut units = Vec::with_capacity(nworkers);
        let mut rest: &mut [u32] = &mut adj;
        for lo in (0..n).step_by(chunk) {
            let hi = (lo + chunk).min(n);
            let (slice, tail) = rest.split_at_mut((starts[hi] - starts[lo]) as usize);
            units.push((lo, hi, slice));
            rest = tail;
        }
        par::map_units("topo.fill", units, |(lo, hi, out)| {
            let base = starts[lo] as usize;
            let (mut bids, mut bx, mut by, mut row) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (ids, xs, ys) in index.cells() {
                let first = ids.partition_point(|&id| (id as usize) < lo);
                let members = first..first + ids[first..].partition_point(|&id| (id as usize) < hi);
                if members.is_empty() {
                    continue;
                }
                let block = members.clone().fold(
                    [usize::MAX, 0, usize::MAX, 0],
                    |[x_lo, x_hi, y_lo, y_hi], k| {
                        let [a, b, c, d] = index.stencil(&Point2::new(xs[k], ys[k]), r);
                        [x_lo.min(a), x_hi.max(b), y_lo.min(c), y_hi.max(d)]
                    },
                );
                bids.clear();
                index.for_each_block_row(block, |rids, _, _| bids.extend_from_slice(rids));
                bids.sort_unstable();
                bx.clear();
                by.clear();
                for &id in &bids {
                    let q = index.position(NodeId(id));
                    bx.push(q.x);
                    by.push(q.y);
                }
                row.resize(row.len().max(bids.len()), 0);
                for k in members {
                    let me = ids[k];
                    let p = Point2::new(xs[k], ys[k]);
                    let mut len = 0;
                    for ((&id, &x), &y) in bids.iter().zip(&bx).zip(&by) {
                        row[len] = id;
                        len += usize::from((Point2::new(x, y).dist_sq(&p) <= r2) & (id != me));
                    }
                    let i = me as usize;
                    out[starts[i] as usize - base..starts[i + 1] as usize - base]
                        .copy_from_slice(&row[..len]);
                }
            }
        });

        let topo = Topology {
            comm_radius: r,
            starts,
            adj,
            index,
        };
        // Footprint gauge: the CSR arrays dominate resident memory at
        // scale; a live scrape during a million-node build shows the jump.
        nss_obs::gauge!("topo.adjacency.bytes").set(topo.adjacency_bytes() as f64);
        Ok(topo)
    }

    /// Bytes held by the CSR adjacency (offsets + neighbor ids) — the
    /// dominant allocation at scale, reported by the scale benchmark.
    pub fn adjacency_bytes(&self) -> usize {
        (self.starts.len() + self.adj.len()) * std::mem::size_of::<u32>()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Every node id, `0..len`.
    pub fn ids(&self) -> Range<u32> {
        0..self.len() as u32
    }

    /// True when the topology has no nodes (never produced by deployments,
    /// which always include the source).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point2 {
        self.index.position(id)
    }

    /// The shared communication radius.
    pub fn comm_radius(&self) -> f64 {
        self.comm_radius
    }

    /// Neighbors of `u` (sorted by id).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        let lo = self.starts[u.index()] as usize;
        let hi = self.starts[u.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// The neighbors of `u` whose ids lie in `ids`: a sub-slice of its
    /// row, cut by two binary searches since rows ascend by id.
    #[inline]
    pub fn neighbors_in(&self, u: NodeId, ids: &Range<u32>) -> &[u32] {
        let row = self.neighbors(u);
        &row[ascending_in(row, ids)]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Mean degree over all nodes — the empirical ρ.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.adj.len() as f64 / self.len() as f64
    }

    /// Calls `f` for each node with an id in `ids` within distance
    /// `radius` of an arbitrary point, in the grid's canonical order (see
    /// [`GridIndex::for_each_within`]); pass [`Self::ids`] for every node.
    /// The media use it for carrier-sense and SINR interference ranges.
    pub fn for_each_within(
        &self,
        center: &Point2,
        radius: f64,
        ids: &Range<u32>,
        f: impl FnMut(NodeId),
    ) {
        self.index.for_each_within(center, radius, ids, f);
    }

    /// BFS hop distance from `src` to every node; `u32::MAX` marks
    /// unreachable nodes. Level 0 is the source itself.
    pub fn bfs_levels(&self, src: NodeId) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.len()];
        let mut queue = VecDeque::new();
        level[src.index()] = 0;
        queue.push_back(src.0);
        while let Some(u) = queue.pop_front() {
            let lu = level[u as usize];
            for &v in self.neighbors(NodeId(u)) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = lu + 1;
                    queue.push_back(v);
                }
            }
        }
        level
    }

    /// Fraction of nodes reachable from the source by multi-hop paths — an
    /// upper bound on any broadcast scheme's reachability.
    pub fn reachable_fraction(&self, src: NodeId) -> f64 {
        let levels = self.bfs_levels(src);
        levels.iter().filter(|&&l| l != u32::MAX).count() as f64 / self.len() as f64
    }

    /// Graph eccentricity of the source in hops (max finite BFS level) — the
    /// CFM flooding latency in units of `t_f`.
    pub fn source_eccentricity(&self, src: NodeId) -> u32 {
        self.bfs_levels(src)
            .iter()
            .copied()
            .filter(|&l| l != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Sizes of the connected components, largest first.
    pub fn component_sizes(&self) -> Vec<usize> {
        let n = self.len();
        let mut comp = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            let c = sizes.len() as u32;
            let mut size = 0usize;
            let mut queue = VecDeque::new();
            comp[s] = c;
            queue.push_back(s as u32);
            while let Some(u) = queue.pop_front() {
                size += 1;
                for &v in self.neighbors(NodeId(u)) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = c;
                        queue.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Degree histogram statistics (min, mean, max).
    pub fn degree_stats(&self) -> (usize, f64, usize) {
        let mut min = usize::MAX;
        let mut max = 0usize;
        for u in 0..self.len() {
            let d = self.degree(NodeId(u as u32));
            min = min.min(d);
            max = max.max(d);
        }
        if self.is_empty() {
            (0, 0.0, 0)
        } else {
            (min, self.mean_degree(), max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;

    fn line_topology(n: usize, spacing: f64, r: f64) -> Topology {
        let positions = (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::build(&DeployedNetwork::from_positions(positions, r))
    }

    #[test]
    fn grid_unit_disk_neighbors() {
        // 3×3 grid, spacing 1, radius 1: orthogonal neighbors only.
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(3, 1.0, 1.0)).sample(0);
        let topo = Topology::build(&net);
        assert_eq!(topo.len(), 9);
        // Source is the center: 4 orthogonal neighbors.
        assert_eq!(topo.degree(NodeId::SOURCE), 4);
        // Corner nodes have degree 2.
        let (min, mean, max) = topo.degree_stats();
        assert_eq!(min, 2);
        assert_eq!(max, 4);
        assert!((mean - 24.0 / 9.0).abs() < 1e-12);
        // Total undirected edges in a 3×3 grid graph: 12.
        assert_eq!(topo.edge_count(), 12);
    }

    #[test]
    fn grid_diagonals_with_larger_radius() {
        // radius √2 picks up diagonals too.
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(
            3,
            1.0,
            2.0f64.sqrt() + 1e-9,
        ))
        .sample(0);
        let topo = Topology::build(&net);
        assert_eq!(topo.degree(NodeId::SOURCE), 8);
    }

    #[test]
    fn bfs_levels_on_grid() {
        let net = Deployment::Grid(crate::deployment::GridDeployment::new(5, 1.0, 1.0)).sample(0);
        let topo = Topology::build(&net);
        let levels = topo.bfs_levels(NodeId::SOURCE);
        // Manhattan distance from center on a 5×5 grid: eccentricity 4.
        assert_eq!(topo.source_eccentricity(NodeId::SOURCE), 4);
        assert_eq!(levels.iter().filter(|&&l| l == u32::MAX).count(), 0);
        assert!((topo.reachable_fraction(NodeId::SOURCE) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_adjacency() {
        let net = Deployment::disk(3, 1.0, 30.0).sample(5);
        let topo = Topology::build(&net);
        for u in 0..topo.len() {
            for &v in topo.neighbors(NodeId(u as u32)) {
                assert!(
                    topo.neighbors(NodeId(v)).contains(&(u as u32)),
                    "asymmetric edge {u}-{v}"
                );
            }
        }
    }

    #[test]
    fn positions_read_through_the_index_match_the_deployment() {
        let net = Deployment::disk(4, 1.0, 30.0).sample(2);
        let topo = Topology::build(&net);
        assert_eq!(topo.len(), net.positions().len());
        for (i, p) in net.positions().iter().enumerate() {
            assert_eq!(topo.position(NodeId(i as u32)), *p, "node {i}");
        }
    }

    #[test]
    fn mean_degree_tracks_rho() {
        // For dense disks the mean degree should be near ρ (boundary effects
        // pull it slightly below).
        let net = Deployment::disk(5, 1.0, 60.0).sample(9);
        let topo = Topology::build(&net);
        let mean = topo.mean_degree();
        assert!(
            mean > 0.75 * 60.0 && mean < 60.0 * 1.05,
            "mean degree {mean} inconsistent with rho=60"
        );
    }

    #[test]
    fn disconnected_components_detected() {
        // Two distant clusters via a sparse disk: use two grid deployments
        // can't express this; instead take a very sparse disk where isolated
        // nodes are likely.
        let net = Deployment::disk(5, 1.0, 2.0).sample(13);
        let topo = Topology::build(&net);
        let sizes = topo.component_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), topo.len());
        assert!(sizes.len() > 1, "expected a disconnected sparse network");
        assert!(topo.reachable_fraction(NodeId::SOURCE) < 1.0);
    }

    #[test]
    fn line_topology_structure() {
        let t = line_topology(5, 1.0, 1.0);
        assert_eq!(t.len(), 5);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert_eq!(t.source_eccentricity(NodeId::SOURCE), 4);
        assert_eq!(t.component_sizes(), vec![5]);
        // spacing larger than radius → fully disconnected
        let t = line_topology(4, 2.0, 1.0);
        assert_eq!(t.component_sizes(), vec![1, 1, 1, 1]);
        assert_eq!(t.source_eccentricity(NodeId::SOURCE), 0);
        assert!((t.reachable_fraction(NodeId::SOURCE) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn singleton_topology() {
        let t = line_topology(1, 1.0, 1.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.degree(NodeId::SOURCE), 0);
        assert_eq!(t.component_sizes(), vec![1]);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let net = Deployment::disk(6, 1.0, 40.0).sample(17);
        let seq = Topology::try_build_with_threads(&net, 1).unwrap();
        for threads in [2, 3, 4, 7] {
            let par = Topology::try_build_with_threads(&net, threads).unwrap();
            assert_eq!(seq.starts, par.starts, "threads={threads}");
            assert_eq!(seq.adj, par.adj, "threads={threads}");
        }
    }

    /// Checks every CSR row, at 1–4 threads, against the brute-force
    /// ascending list of the ids within the radius.
    fn assert_rows_match_brute_force(net: &DeployedNetwork, what: &str) {
        let (pts, r) = (net.positions(), net.comm_radius());
        for threads in 1..=4 {
            let topo = Topology::try_build_with_threads(net, threads).unwrap();
            for (u, p) in pts.iter().enumerate() {
                let want: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&v| v as usize != u && pts[v as usize].dist_sq(p) <= r * r)
                    .collect();
                assert_eq!(
                    topo.neighbors(NodeId(u as u32)),
                    want,
                    "{what}: node {u} at {threads} threads"
                );
            }
        }
    }

    /// The fill's cell block must cover each member's whole stencil: at
    /// exactly distance r, node 2's neighbour sits two cells away (the
    /// field of `spatial`'s `pair_at_exactly_the_radius_across_a_cell_edge`),
    /// and a sparse extent widens the cells beyond r (the field of its
    /// `sparse_extent_widens_cells_and_stays_exact`).
    #[test]
    fn rows_match_brute_force_at_the_block_edges() {
        let pair = [-0.0075, -0.0025, 0.0025].map(|x| Point2::new(x, 0.0));
        let net = DeployedNetwork::from_positions(pair.to_vec(), 0.005);
        assert_rows_match_brute_force(&net, "pair at exactly r");
        assert_eq!(Topology::build(&net).neighbors(NodeId(2)), [1]);

        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pts: Vec<Point2> = (0..300)
            .map(|_| Point2::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)))
            .collect();
        pts.extend([
            Point2::new(-2e6, 5e5),
            Point2::new(1e6, -1e6),
            Point2::new(1e6, -1e6 + 0.5),
        ]);
        let net = DeployedNetwork::from_positions(pts, 1.0);
        assert_rows_match_brute_force(&net, "widened cells");
    }

    /// FNV-1a digest of the CSR arrays, `starts` then `adj`, little-endian.
    fn csr_digest(t: &Topology) -> u64 {
        let bytes: Vec<u8> = t
            .starts
            .iter()
            .chain(&t.adj)
            .flat_map(|w| w.to_le_bytes())
            .collect();
        nss_obs::manifest::fnv64(&bytes)
    }

    /// The digests were recorded from the per-node grid-query build that
    /// preceded the cell-ordered passes, so they tie today's rows to those
    /// bytes rather than only to themselves.
    #[test]
    fn csr_bytes_match_recorded_digests() {
        for (p, rho, expect) in [
            (5, 20.0, 0x37d1_7124_1646_ad34_u64),
            (5, 140.0, 0x031a_6756_e20c_c1e9),
        ] {
            let topo = Topology::build(&Deployment::disk(p, 1.0, rho).sample(2005));
            assert_eq!(csr_digest(&topo), expect, "disk({p}, 1, {rho})");
        }
        // Above `PAR_BUILD_THRESHOLD`, so thread count 0 fans out.
        let net = Deployment::disk(10, 1.0, 140.0).sample(2005);
        assert!(net.positions().len() > PAR_BUILD_THRESHOLD);
        for threads in [1, 2, 0] {
            let topo = Topology::try_build_with_threads(&net, threads).unwrap();
            assert_eq!(
                csr_digest(&topo),
                0x9288_b68d_f8dd_d771,
                "disk(10, 1, 140) at {threads} threads"
            );
        }
    }

    #[test]
    fn node_count_overflow_is_config_error() {
        assert_eq!(check_node_count(MAX_NODES), Ok(()));
        let err = check_node_count(MAX_NODES + 1).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Exceeds {
                field: "node count",
                ..
            }
        ));
    }

    #[test]
    fn adjacency_overflow_is_config_error() {
        assert_eq!(check_adjacency_len(u64::from(u32::MAX)), Ok(()));
        let err = check_adjacency_len(u64::from(u32::MAX) + 1).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::Exceeds {
                field: "adjacency entries",
                ..
            }
        ));
    }

    #[test]
    fn adjacency_bytes_counts_csr_storage() {
        let t = line_topology(5, 1.0, 1.0);
        // 6 offsets + 8 directed edges, 4 bytes each.
        assert_eq!(t.adjacency_bytes(), (6 + 8) * 4);
    }
}
