//! Planar geometry primitives used throughout the network model and the
//! analytical framework.
//!
//! The central nontrivial function is [`lens_area`], the area of the
//! intersection of two circles, which is Eq. (1) of the paper. The paper
//! parameterizes it as `f(D1, D2, x)` where `x` is the (signed) distance from
//! the center of the second circle to the *border* of the first; we provide
//! both that parameterization ([`lens_area_border`]) and the conventional
//! center-distance one ([`lens_area`]).

/// A point (or vector) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Origin of the coordinate system (where the paper places the source).
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from Cartesian coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Creates a point from polar coordinates `(radius, angle)`.
    #[inline]
    pub fn from_polar(radius: f64, angle: f64) -> Self {
        Point2 {
            x: radius * angle.cos(),
            y: radius * angle.sin(),
        }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in hot loops such
    /// as unit-disk neighborhood tests).
    #[inline]
    pub fn dist_sq(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Distance from the origin.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// Area of a disk of radius `r`. Returns 0 for non-positive radii so that
/// degenerate rings (e.g. the nonexistent ring `R_0`) fall out naturally.
#[inline]
pub fn disk_area(r: f64) -> f64 {
    if r <= 0.0 {
        0.0
    } else {
        std::f64::consts::PI * r * r
    }
}

/// Area of the annulus between radii `inner` and `outer` (`C_j` in the
/// paper when `inner = (j-1)·r`, `outer = j·r`).
#[inline]
pub fn annulus_area(inner: f64, outer: f64) -> f64 {
    (disk_area(outer) - disk_area(inner)).max(0.0)
}

/// Area of the intersection ("lens") of two circles with radii `r1`, `r2`
/// whose centers are `d ≥ 0` apart.
///
/// Handles all degenerate configurations:
/// * either radius non-positive → 0,
/// * disjoint circles (`d ≥ r1 + r2`) → 0,
/// * containment (`d ≤ |r1 − r2|`) → area of the smaller disk.
///
/// The formula is the standard circular-segment decomposition, algebraically
/// identical to the paper's Eq. (1)
/// `f = α·D1² − D1²·sinα·cosα + β·D2² − D2²·sinβ·cosβ`.
pub fn lens_area(r1: f64, r2: f64, d: f64) -> f64 {
    debug_assert!(d >= 0.0, "center distance must be non-negative, got {d}");
    if r1 <= 0.0 || r2 <= 0.0 {
        return 0.0;
    }
    if d >= r1 + r2 {
        return 0.0;
    }
    let rmin = r1.min(r2);
    if d <= (r1 - r2).abs() {
        return disk_area(rmin);
    }
    // Half-angles subtended by the chord at each center. Clamp the cosine
    // arguments: floating-point noise near tangency can push them a hair
    // outside [-1, 1].
    let cos_a = ((r1 * r1 + d * d - r2 * r2) / (2.0 * r1 * d)).clamp(-1.0, 1.0);
    let cos_b = ((r2 * r2 + d * d - r1 * r1) / (2.0 * r2 * d)).clamp(-1.0, 1.0);
    let alpha = cos_a.acos();
    let beta = cos_b.acos();
    let seg1 = r1 * r1 * (alpha - alpha.sin() * alpha.cos());
    let seg2 = r2 * r2 * (beta - beta.sin() * beta.cos());
    (seg1 + seg2).max(0.0)
}

/// The paper's `f(D1, D2, x)` (Eq. 1): area of intersection of circle `L1`
/// (radius `d1`) and circle `L2` (radius `d2`) where `x` is the distance from
/// the center of `L2` to the *border* of `L1` — positive outside `L1`,
/// negative inside. The center distance is therefore `d1 + x`.
#[inline]
pub fn lens_area_border(d1: f64, d2: f64, x: f64) -> f64 {
    let d = (d1 + x).max(0.0);
    lens_area(d1, d2, d)
}

/// Returns true if `p` lies strictly inside the disk of radius `r` centered
/// at `c` (boundary counts as inside; the unit-disk model treats nodes at
/// exactly distance `r` as neighbors).
#[inline]
pub fn in_disk(p: &Point2, c: &Point2, r: f64) -> bool {
    p.dist_sq(c) <= r * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-9;

    #[test]
    fn point_distance_and_polar() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < TOL);
        assert!((a.dist_sq(&b) - 25.0).abs() < TOL);
        let p = Point2::from_polar(2.0, PI / 2.0);
        assert!(p.x.abs() < TOL);
        assert!((p.y - 2.0).abs() < TOL);
        assert!((p.norm() - 2.0).abs() < TOL);
    }

    #[test]
    fn disk_and_annulus_areas() {
        assert!((disk_area(1.0) - PI).abs() < TOL);
        assert_eq!(disk_area(0.0), 0.0);
        assert_eq!(disk_area(-1.0), 0.0);
        // C_j = π r² (j² − (j−1)²)
        let r = 2.0;
        for j in 1..=6u32 {
            let j = j as f64;
            let expect = PI * r * r * (j * j - (j - 1.0) * (j - 1.0));
            assert!((annulus_area((j - 1.0) * r, j * r) - expect).abs() < 1e-8);
        }
    }

    #[test]
    fn lens_disjoint_is_zero() {
        assert_eq!(lens_area(1.0, 1.0, 2.0), 0.0);
        assert_eq!(lens_area(1.0, 1.0, 5.0), 0.0);
    }

    #[test]
    fn lens_containment_is_smaller_disk() {
        assert!((lens_area(3.0, 1.0, 0.5) - PI).abs() < TOL);
        assert!((lens_area(1.0, 3.0, 0.5) - PI).abs() < TOL);
        // concentric
        assert!((lens_area(2.0, 1.0, 0.0) - PI).abs() < TOL);
    }

    #[test]
    fn lens_equal_circles_half_overlap() {
        // Two unit circles at distance d: area = 2 r² cos⁻¹(d/2r) − (d/2)·√(4r²−d²)
        let r = 1.0f64;
        for d in [0.1f64, 0.5, 1.0, 1.5, 1.9] {
            let expect =
                2.0 * r * r * (d / (2.0 * r)).acos() - (d / 2.0) * (4.0 * r * r - d * d).sqrt();
            assert!(
                (lens_area(r, r, d) - expect).abs() < 1e-9,
                "d={d}: {} vs {}",
                lens_area(r, r, d),
                expect
            );
        }
    }

    #[test]
    fn lens_degenerate_radii() {
        assert_eq!(lens_area(0.0, 1.0, 0.5), 0.0);
        assert_eq!(lens_area(1.0, 0.0, 0.5), 0.0);
        assert_eq!(lens_area(-1.0, 1.0, 0.5), 0.0);
    }

    #[test]
    fn lens_continuity_at_tangency() {
        // Just inside / outside external tangency.
        let eps = 1e-12;
        assert!(lens_area(1.0, 1.0, 2.0 - eps) < 1e-6);
        // Just inside / outside internal tangency.
        assert!((lens_area(2.0, 1.0, 1.0 + eps) - PI).abs() < 1e-5);
    }

    #[test]
    fn lens_border_parameterization() {
        // x is distance from L2's center to L1's border: center distance d1+x.
        let a = lens_area_border(2.0, 1.0, 0.5); // centers 2.5 apart
        let b = lens_area(2.0, 1.0, 2.5);
        assert!((a - b).abs() < TOL);
        // negative x: center of L2 inside L1
        let a = lens_area_border(2.0, 1.0, -1.5); // centers 0.5 apart → containment
        assert!((a - PI).abs() < TOL);
        // x so negative that d1 + x < 0 clamps to concentric
        let a = lens_area_border(2.0, 1.0, -3.0);
        assert!((a - PI).abs() < TOL);
    }

    #[test]
    fn lens_monotone_in_distance() {
        let mut prev = f64::INFINITY;
        let mut d = 0.0;
        while d <= 3.1 {
            let a = lens_area(2.0, 1.0, d);
            assert!(a <= prev + 1e-12, "lens area must not increase with d");
            prev = a;
            d += 0.01;
        }
    }

    #[test]
    fn lens_symmetric_in_radii() {
        for d in [0.0, 0.3, 1.0, 2.4, 3.0] {
            assert!((lens_area(2.0, 1.5, d) - lens_area(1.5, 2.0, d)).abs() < TOL);
        }
    }

    #[test]
    fn in_disk_boundary_counts() {
        let c = Point2::ORIGIN;
        assert!(in_disk(&Point2::new(1.0, 0.0), &c, 1.0));
        assert!(!in_disk(&Point2::new(1.0 + 1e-9, 0.0), &c, 1.0));
    }
}
