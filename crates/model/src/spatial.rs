//! Uniform-grid spatial index for unit-disk range queries.
//!
//! Building the unit-disk graph naively is O(N²); with a grid of cell size
//! `r` each query touches only the 3×3 cell block around the query point, so
//! construction is O(N·ρ) — essential at the paper's densest setting
//! (ρ = 140, N = 3500) and more so for the scaled-up extension sweeps.

use crate::error::ConfigError;
use crate::geometry::Point2;
use crate::ids::NodeId;

/// A grid-bucketed index over a fixed set of points.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// CSR-style layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl GridIndex {
    /// Builds an index with the given cell size (normally the communication
    /// radius). Points may be empty; queries then return nothing. A cell
    /// size that is not strictly positive and finite is a configuration
    /// error, not a panic.
    pub fn build(points: &[Point2], cell: f64) -> Result<Self, ConfigError> {
        if !(cell > 0.0 && cell.is_finite()) {
            return Err(ConfigError::NotPositive {
                field: "grid cell size",
                value: cell,
            });
        }
        if points.is_empty() {
            return Ok(GridIndex {
                cell,
                min_x: 0.0,
                min_y: 0.0,
                nx: 1,
                ny: 1,
                starts: vec![0, 0],
                entries: Vec::new(),
            });
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let nx = (((max_x - min_x) / cell).floor() as usize + 1).max(1);
        let ny = (((max_y - min_y) / cell).floor() as usize + 1).max(1);
        let ncells = nx * ny;

        // Counting sort into cells.
        let cell_of = |p: &Point2| -> usize {
            let cx = (((p.x - min_x) / cell).floor() as usize).min(nx - 1);
            let cy = (((p.y - min_y) / cell).floor() as usize).min(ny - 1);
            cy * nx + cx
        };
        let mut counts = vec![0u32; ncells + 1];
        for p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut entries = vec![0u32; points.len()];
        let mut cursor = starts.clone();
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        Ok(GridIndex {
            cell,
            min_x,
            min_y,
            nx,
            ny,
            starts,
            entries,
        })
    }

    /// Calls `f(id)` for every indexed point within distance `radius` of
    /// `center` (inclusive), given the original point slice.
    ///
    /// Radii up to the cell size scan a 3×3 block; larger radii (e.g. the
    /// carrier-sense range `2r` over an index built with cell `r`) scan a
    /// proportionally larger block.
    pub fn for_each_within(
        &self,
        points: &[Point2],
        center: &Point2,
        radius: f64,
        mut f: impl FnMut(NodeId),
    ) {
        if self.entries.is_empty() {
            return;
        }
        let reach = (radius / self.cell).ceil().max(1.0) as i64;
        let r2 = radius * radius;
        let cx =
            (((center.x - self.min_x) / self.cell).floor() as i64).clamp(0, self.nx as i64 - 1);
        let cy =
            (((center.y - self.min_y) / self.cell).floor() as i64).clamp(0, self.ny as i64 - 1);
        for dy in -reach..=reach {
            let y = cy + dy;
            if y < 0 || y >= self.ny as i64 {
                continue;
            }
            for dx in -reach..=reach {
                let x = cx + dx;
                if x < 0 || x >= self.nx as i64 {
                    continue;
                }
                let c = (y as usize) * self.nx + x as usize;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                for &e in &self.entries[lo..hi] {
                    if points[e as usize].dist_sq(center) <= r2 {
                        f(NodeId(e));
                    }
                }
            }
        }
    }

    /// Collects the ids within `radius` of `center` into a vector.
    pub fn within(&self, points: &[Point2], center: &Point2, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_within(points, center, radius, |id| out.push(id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn brute_force(points: &[Point2], c: &Point2, r: f64) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist_sq(c) <= r * r)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[], 1.0).unwrap();
        assert!(idx.within(&[], &Point2::ORIGIN, 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let pts = vec![Point2::new(0.5, 0.5)];
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(idx.within(&pts, &Point2::ORIGIN, 1.0), vec![NodeId(0)]);
        assert!(idx.within(&pts, &Point2::new(3.0, 3.0), 1.0).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut rng = SmallRng::seed_from_u64(21);
        let pts: Vec<Point2> = (0..500)
            .map(|_| Point2::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)))
            .collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        for _ in 0..50 {
            let c = Point2::new(rng.random_range(-6.0..6.0), rng.random_range(-6.0..6.0));
            let mut got = idx.within(&pts, &c, 1.0);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, &c, 1.0));
        }
    }

    #[test]
    fn boundary_point_included() {
        let pts = vec![Point2::new(1.0, 0.0)];
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(idx.within(&pts, &Point2::ORIGIN, 1.0).len(), 1);
    }

    #[test]
    fn smaller_query_radius_ok() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pts: Vec<Point2> = (0..200)
            .map(|_| Point2::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)))
            .collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        for _ in 0..20 {
            let c = Point2::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0));
            let mut got = idx.within(&pts, &c, 0.5);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, &c, 0.5));
        }
    }

    #[test]
    fn large_radius_queries_scan_wider_block() {
        let mut rng = SmallRng::seed_from_u64(9);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)))
            .collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        for radius in [2.0, 3.5] {
            for _ in 0..20 {
                let c = Point2::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0));
                let mut got = idx.within(&pts, &c, radius);
                got.sort_unstable();
                assert_eq!(got, brute_force(&pts, &c, radius), "radius {radius}");
            }
        }
    }

    #[test]
    fn nonpositive_cell_is_config_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = GridIndex::build(&[], bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::NotPositive {
                        field: "grid cell size",
                        ..
                    }
                ),
                "cell {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn collinear_degenerate_extent() {
        // All points on a horizontal line: grid is 1 cell tall.
        let pts: Vec<Point2> = (0..10).map(|i| Point2::new(i as f64, 0.0)).collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        let got = idx.within(&pts, &Point2::new(5.0, 0.0), 1.0);
        assert_eq!(got.len(), 3); // nodes 4,5,6
    }
}
