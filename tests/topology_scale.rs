//! Property tests for the two-pass counting CSR topology builder: the
//! grid-accelerated adjacency must equal brute-force O(n²) adjacency on
//! random fields and on lattice fields full of ties, at any worker-thread
//! count.

use nss::model::prelude::*;
use proptest::prelude::*;

/// Brute-force unit-disk adjacency: sorted neighbor row per node.
fn brute_force_adjacency(points: &[Point2], r: f64) -> Vec<Vec<u32>> {
    let r2 = r * r;
    (0..points.len())
        .map(|i| {
            (0..points.len())
                .filter(|&j| j != i && points[i].dist_sq(&points[j]) <= r2)
                .map(|j| j as u32)
                .collect()
        })
        .collect()
}

/// A field on a lattice of step `r / per_r`, with the first quarter of
/// the sites repeated: with `per_r` 2 or 4 it holds pairs at exactly
/// distance r (kept by `<=`), coincident nodes and points on grid-cell
/// edges.
fn lattice_points(sites: &[(i32, i32)], r: f64, per_r: f64) -> Vec<Point2> {
    let step = r / per_r;
    sites
        .iter()
        .chain(&sites[..sites.len() / 4])
        .map(|&(i, j)| Point2::new(f64::from(i) * step, f64::from(j) * step))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_matches_brute_force_adjacency(
        pts in proptest::collection::vec((-6.0f64..6.0, -6.0f64..6.0), 1..90),
        r in 0.2f64..4.0,
        threads in 1usize..5,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let expect = brute_force_adjacency(&points, r);
        let net = DeployedNetwork::from_positions(points, r);
        let topo = Topology::try_build_with_threads(&net, threads).unwrap();
        for (i, row) in expect.iter().enumerate() {
            prop_assert_eq!(
                topo.neighbors(NodeId(i as u32)), row.as_slice(),
                "node {} at {} threads", i, threads
            );
        }
    }

    #[test]
    fn build_is_thread_count_invariant(
        pts in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..120),
        r in 0.2f64..3.0,
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let net = DeployedNetwork::from_positions(points, r);
        let seq = Topology::try_build_with_threads(&net, 1).unwrap();
        for threads in [2, 4] {
            let par = Topology::try_build_with_threads(&net, threads).unwrap();
            for i in 0..seq.len() {
                prop_assert_eq!(
                    seq.neighbors(NodeId(i as u32)),
                    par.neighbors(NodeId(i as u32)),
                    "node {} at {} threads", i, threads
                );
            }
        }
    }

    /// Ties and boundaries, at up to 8 threads: often more than nodes.
    #[test]
    fn csr_matches_brute_force_on_lattice_ties(
        sites in proptest::collection::vec((-8i32..8, -8i32..8), 1..70),
        r in 0.2f64..3.0,
        quarter_steps in 0u8..2,
        threads in 1usize..9,
    ) {
        let points = lattice_points(&sites, r, if quarter_steps == 1 { 4.0 } else { 2.0 });
        let expect = brute_force_adjacency(&points, r);
        let net = DeployedNetwork::from_positions(points, r);
        let topo = Topology::try_build_with_threads(&net, threads).unwrap();
        for (i, row) in expect.iter().enumerate() {
            prop_assert_eq!(
                topo.neighbors(NodeId(i as u32)), row.as_slice(),
                "node {} at {} threads", i, threads
            );
        }
    }
}
