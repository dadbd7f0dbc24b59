//! Uniform-grid spatial index for unit-disk range queries.
//!
//! Building the unit-disk graph naively is O(N²); with a grid of cell size
//! `r` each query touches only the 3×3 cell block around the query point, so
//! construction is O(N·ρ) — essential at the paper's densest setting
//! (ρ = 140, N = 3500) and more so for the scaled-up extension sweeps.

use crate::error::ConfigError;
use crate::geometry::Point2;
use crate::ids::NodeId;
use std::ops::Range;

/// The build widens its cells when the bounding box would need more than
/// this many cells per point (or [`MIN_CELL_LIMIT`], if larger).
const CELLS_PER_POINT: usize = 4;

/// Cell budget below which the build never widens its cells, so small
/// fields keep cells of exactly the requested size.
const MIN_CELL_LIMIT: usize = 4_096;

/// A grid-bucketed index over a fixed set of points.
///
/// The points are counting-sorted into cells and kept in cell-major order,
/// ids ascending within a cell, next to their coordinates. The cells of one
/// grid row are then one contiguous run of those arrays, so a query scans
/// one run of coordinates per grid row of its cell block.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    min_x: f64,
    min_y: f64,
    nx: usize,
    ny: usize,
    /// CSR-style layout: `starts[c]..starts[c+1]` is cell `c`'s run of the
    /// cell-ordered arrays below.
    starts: Vec<u32>,
    /// Point ids in cell-major order.
    ids: Vec<u32>,
    /// Coordinates of `ids[k]`, in the same order.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Where each id sits in the cell-ordered arrays: `ids[slot[i]] == i`.
    slot: Vec<u32>,
}

impl GridIndex {
    /// Builds an index with the given cell size (normally the communication
    /// radius). Points may be empty; queries then return nothing. A cell
    /// size that is not strictly positive and finite is a configuration
    /// error, not a panic.
    ///
    /// A sparse field whose bounding box would need more than
    /// `max(4·n, 4096)` cells gets proportionally wider cells instead, so
    /// memory stays O(n) however far apart the points lie. Wider cells only
    /// add candidates to the same exact distance test, so query results do
    /// not change.
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
                ids: Vec::new(),
                xs: Vec::new(),
                ys: Vec::new(),
                slot: Vec::new(),
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
        // Extents in f64: far-apart points must not overflow `nx * ny`.
        let (wx, wy) = (max_x - min_x, max_y - min_y);
        let cell_count = |c: f64| ((wx / c).floor() + 1.0) * ((wy / c).floor() + 1.0);
        let limit = (CELLS_PER_POINT * points.len()).max(MIN_CELL_LIMIT) as f64;
        let cell = if cell_count(cell) <= limit {
            cell
        } else {
            // With both sides at most q = limit/4 cells and their product
            // at most q, the grid holds at most 3q + 1 <= limit cells. A
            // cell no smaller than r keeps the 3×3 stencil exact.
            let q = limit / 4.0;
            cell.max(wx / q)
                .max(wy / q)
                .max(wx.sqrt() * wy.sqrt() / q.sqrt())
        };
        let mut index = GridIndex {
            cell,
            min_x,
            min_y,
            nx: (wx / cell).floor() as usize + 1,
            ny: (wy / cell).floor() as usize + 1,
            starts: Vec::new(),
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            slot: Vec::new(),
        };

        // Counting sort into cells; the stable scatter keeps ids ascending
        // within each cell.
        let ncells = index.nx * index.ny;
        let mut starts = vec![0u32; ncells + 1];
        for p in points {
            starts[index.cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut ids = vec![0u32; points.len()];
        let mut xs = vec![0.0; points.len()];
        let mut ys = vec![0.0; points.len()];
        let mut slot = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = index.cell_of(p);
            let k = cursor[c] as usize;
            ids[k] = i as u32;
            xs[k] = p.x;
            ys[k] = p.y;
            slot[i] = k as u32;
            cursor[c] += 1;
        }
        index.starts = starts;
        index.ids = ids;
        index.xs = xs;
        index.ys = ys;
        index.slot = slot;
        Ok(index)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no point is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Position of point `id`.
    #[inline]
    pub fn position(&self, id: NodeId) -> Point2 {
        let k = self.slot[id.index()] as usize;
        Point2::new(self.xs[k], self.ys[k])
    }

    /// Cell-major index of the cell holding `p`, clamped into the grid.
    #[inline]
    fn cell_of(&self, p: &Point2) -> usize {
        clamp_cell((p.y - self.min_y) / self.cell, self.ny) * self.nx
            + clamp_cell((p.x - self.min_x) / self.cell, self.nx)
    }

    /// The stencil every range query scans: calls `scan(ids, xs, ys)` once
    /// per grid row of the cells that meet the square of half-side `radius`
    /// around `center`, lowest row first. Each call is that row's cells,
    /// left to right, as one contiguous run of the cell-ordered arrays,
    /// with ids ascending within each cell.
    ///
    /// The square is widened by a margin far above the rounding error of
    /// the cell arithmetic (a few ulps of the cell coordinate), so a point
    /// that the distance test keeps at exactly `radius` is never in a cell
    /// just outside the stencil.
    pub(crate) fn for_each_row(
        &self,
        center: &Point2,
        radius: f64,
        scan: impl FnMut(&[u32], &[f64], &[f64]),
    ) {
        self.for_each_block_row(self.stencil(center, radius), scan);
    }

    /// The cell block `[x_lo, x_hi, y_lo, y_hi]` (inclusive, in cells) that
    /// `for_each_row(center, radius, ..)` scans.
    pub(crate) fn stencil(&self, center: &Point2, radius: f64) -> [usize; 4] {
        let reach = (radius / self.cell).abs();
        let span = |v: f64, min: f64, cells: usize| {
            let f = (v - min) / self.cell;
            let slack = (f.abs() + reach + 1.0) * 1e-12;
            (
                clamp_cell(f - reach - slack, cells),
                clamp_cell(f + reach + slack, cells),
            )
        };
        let (x_lo, x_hi) = span(center.x, self.min_x, self.nx);
        let (y_lo, y_hi) = span(center.y, self.min_y, self.ny);
        [x_lo, x_hi, y_lo, y_hi]
    }

    /// Calls `scan(ids, xs, ys)` once per grid row of the cell block
    /// `[x_lo, x_hi, y_lo, y_hi]`, lowest row first, as `for_each_row` does.
    pub(crate) fn for_each_block_row(
        &self,
        [x_lo, x_hi, y_lo, y_hi]: [usize; 4],
        mut scan: impl FnMut(&[u32], &[f64], &[f64]),
    ) {
        for y in y_lo..=y_hi {
            let lo = self.starts[y * self.nx + x_lo] as usize;
            let hi = self.starts[y * self.nx + x_hi + 1] as usize;
            scan(&self.ids[lo..hi], &self.xs[lo..hi], &self.ys[lo..hi]);
        }
    }

    /// Each cell's run of the cell-ordered arrays, `(ids, xs, ys)`, in
    /// cell-major order; ids ascend within a run.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (&[u32], &[f64], &[f64])> {
        self.starts.windows(2).map(|w| {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            (&self.ids[lo..hi], &self.xs[lo..hi], &self.ys[lo..hi])
        })
    }

    /// Calls `f(id)` for every indexed point with an id in `ids` within
    /// distance `radius` of `center` (inclusive), in the stencil's cell
    /// order (see `for_each_row`), ascending by id within a cell.
    ///
    /// Radii up to the cell size scan at most a 3×3 block (a 4×4 one when
    /// the query square ends within the rounding margin of a cell edge);
    /// larger radii (e.g. the carrier-sense range `2r` over an index built
    /// with cell `r`) scan a proportionally larger block.
    ///
    /// Ids ascend within a cell, so each cell is cut to its sub-run in
    /// `ids` (two binary searches, skipped when `ids` holds the whole run)
    /// before any distance test: queries over disjoint id ranges test
    /// disjoint points, and together they visit, in the same order,
    /// exactly what one query over every id does.
    pub fn for_each_within(
        &self,
        center: &Point2,
        radius: f64,
        ids: &Range<u32>,
        mut f: impl FnMut(NodeId),
    ) {
        let r2 = radius * radius;
        let [x_lo, x_hi, y_lo, y_hi] = self.stencil(center, radius);
        for y in y_lo..=y_hi {
            for c in y * self.nx + x_lo..=y * self.nx + x_hi {
                let (lo, hi) = (self.starts[c] as usize, self.starts[c + 1] as usize);
                let cut = ascending_in(&self.ids[lo..hi], ids);
                let (lo, hi) = (lo + cut.start, lo + cut.end);
                let run = self.ids[lo..hi].iter().zip(&self.xs[lo..hi]);
                for ((&id, &x), &y) in run.zip(&self.ys[lo..hi]) {
                    if Point2::new(x, y).dist_sq(center) <= r2 {
                        f(NodeId(id));
                    }
                }
            }
        }
    }

    /// Collects the ids within `radius` of `center` into a vector.
    pub fn within(&self, center: &Point2, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, &(0..u32::MAX), |id| out.push(id));
        out
    }
}

/// The positions of `run`, an ascending id list, whose ids lie in `ids`:
/// one contiguous sub-range, found by two binary searches unless `ids`
/// holds the whole run (the full range of a single-threaded caller).
#[inline]
pub(crate) fn ascending_in(run: &[u32], ids: &Range<u32>) -> Range<usize> {
    let inside = |v: Option<&u32>| v.is_none_or(|v| ids.contains(v));
    if inside(run.first()) && inside(run.last()) {
        return 0..run.len();
    }
    let lo = run.partition_point(|&v| v < ids.start);
    lo..lo + run[lo..].partition_point(|&v| v < ids.end)
}

/// Index along one axis of the cell holding grid coordinate `f` (in cells
/// from the grid's lower edge), clamped into `0..cells`; NaN maps to 0.
#[inline]
fn clamp_cell(f: f64, cells: usize) -> usize {
    (f.floor() as usize).min(cells - 1)
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
        assert!(idx.within(&Point2::ORIGIN, 1.0).is_empty());
    }

    #[test]
    fn single_point() {
        let pts = vec![Point2::new(0.5, 0.5)];
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(idx.within(&Point2::ORIGIN, 1.0), vec![NodeId(0)]);
        assert!(idx.within(&Point2::new(3.0, 3.0), 1.0).is_empty());
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
            let mut got = idx.within(&c, 1.0);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, &c, 1.0));
        }
    }

    /// An id-restricted query keeps the full query's order and visits
    /// exactly its points inside the range; over the whole id space it is
    /// the full query.
    #[test]
    fn id_restricted_queries_filter_the_full_query_in_order() {
        let mut rng = SmallRng::seed_from_u64(30);
        let pts: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rng.random_range(-4.0..4.0), rng.random_range(-4.0..4.0)))
            .collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        for _ in 0..30 {
            let c = Point2::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0));
            let radius = rng.random_range(0.5..2.5);
            let full = idx.within(&c, radius);
            for ids in [
                0..400,
                0..0,
                0..1,
                57..58,
                100..250,
                399..400,
                250..u32::MAX,
            ] {
                let mut got = Vec::new();
                idx.for_each_within(&c, radius, &ids, |id| got.push(id));
                let expect: Vec<NodeId> = full
                    .iter()
                    .copied()
                    .filter(|id| ids.contains(&id.0))
                    .collect();
                assert_eq!(got, expect, "ids {ids:?}");
            }
        }
    }

    #[test]
    fn boundary_point_included() {
        let pts = vec![Point2::new(1.0, 0.0)];
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        assert_eq!(idx.within(&Point2::ORIGIN, 1.0).len(), 1);
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
            let mut got = idx.within(&c, 0.5);
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
                let mut got = idx.within(&c, radius);
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
    fn disk_fields_keep_cells_of_size_r() {
        use crate::deployment::Deployment;
        for rho in [1.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0] {
            let net = Deployment::disk(5, 1.0, rho).sample(2005);
            let idx = GridIndex::build(net.positions(), 1.0).unwrap();
            assert_eq!(idx.cell, 1.0, "rho {rho}");
        }
    }

    #[test]
    fn sparse_extent_widens_cells_and_stays_exact() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut pts: Vec<Point2> = (0..300)
            .map(|_| Point2::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)))
            .collect();
        pts.extend([
            Point2::new(-2e6, 5e5),
            Point2::new(1e6, -1e6),
            Point2::new(1e6, -1e6 + 0.5),
        ]);
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        assert!(idx.cell > 1.0);
        assert!(idx.nx * idx.ny <= MIN_CELL_LIMIT, "{} x {}", idx.nx, idx.ny);
        let far = [Point2::new(-2e6, 5e5), Point2::new(1e6, -1e6)];
        for radius in [0.5, 1.0, 2.5] {
            for c in (0..30)
                .map(|_| Point2::new(rng.random_range(-4.0..4.0), rng.random_range(-4.0..4.0)))
                .chain(far)
            {
                let mut got = idx.within(&c, radius);
                got.sort_unstable();
                assert_eq!(got, brute_force(&pts, &c, radius), "radius {radius}");
            }
        }
    }

    #[test]
    fn pair_at_exactly_the_radius_across_a_cell_edge() {
        // (b - min) / r rounds to just below 1 and (c - min) / r to exactly
        // 2, so b and c sit two cells apart although |b - c| = r.
        let r = 0.005;
        let pts = [-0.0075, -0.0025, 0.0025].map(|x| Point2::new(x, 0.0));
        let idx = GridIndex::build(&pts, r).unwrap();
        assert_eq!(idx.cell_of(&pts[1]), 0);
        assert_eq!(idx.cell_of(&pts[2]), 2);
        for c in &pts {
            assert_eq!(idx.within(c, r), brute_force(&pts, c, r));
        }
        assert_eq!(idx.within(&pts[2], r), [NodeId(1), NodeId(2)]);
    }

    #[test]
    fn collinear_degenerate_extent() {
        // All points on a horizontal line: grid is 1 cell tall.
        let pts: Vec<Point2> = (0..10).map(|i| Point2::new(i as f64, 0.0)).collect();
        let idx = GridIndex::build(&pts, 1.0).unwrap();
        let got = idx.within(&Point2::new(5.0, 0.0), 1.0);
        assert_eq!(got.len(), 3); // nodes 4,5,6
    }
}
