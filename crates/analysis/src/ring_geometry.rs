//! Ring decomposition of the circular sensor field (§4.2.2 / Appendix A).
//!
//! The field of radius `P·r` is partitioned into `P` concentric rings
//! `R_1..R_P` of width `r`. For a node `u` in ring `R_j` at distance
//! `x ∈ [0, r]` from the ring's inner boundary:
//!
//! * `A(x, k)` — area of ring `R_k` within `u`'s transmission range `r`.
//!   Non-zero only for `k ∈ {j−1, j, j+1}`.
//! * `B(x, k)` — area of ring `R_k` within `u`'s carrier-sense annulus
//!   `(r, 2r]`. Non-zero only for `k ∈ {j−2, …, j+2}`.
//!
//! The paper expresses these through the border-distance lens function
//! `f(D1, D2, x)`; we compute them from the generic center-distance lens
//! area, which also gives the obvious partition invariants used as tests:
//! `Σ_k A(x, k) = π r²` and `Σ_k B(x, k) = π(2r)² − πr²` when the whole
//! disk lies inside the field.

use nss_model::geometry::{annulus_area, disk_area, lens_area};

/// Geometry of a `P`-ring field with ring width (= transmission radius) `r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingGeometry {
    /// Number of rings `P` (field radius is `P·r`).
    pub p: u32,
    /// Ring width = transmission radius `r`.
    pub r: f64,
}

impl RingGeometry {
    /// Creates the geometry; `P ≥ 1`, `r > 0`.
    pub fn new(p: u32, r: f64) -> Self {
        assert!(p >= 1, "need at least one ring");
        assert!(r > 0.0, "ring width must be positive");
        RingGeometry { p, r }
    }

    /// Area `C_j` of ring `R_j` (`j` is 1-based; out-of-range → 0).
    pub fn ring_area(&self, j: u32) -> f64 {
        if j == 0 || j > self.p {
            return 0.0;
        }
        annulus_area((f64::from(j) - 1.0) * self.r, f64::from(j) * self.r)
    }

    /// Total field area `π (P r)²`.
    pub fn field_area(&self) -> f64 {
        disk_area(f64::from(self.p) * self.r)
    }

    /// Radius of a node in ring `R_j` at offset `x ∈ [0, r]` from the
    /// ring's inner boundary.
    #[inline]
    pub fn node_radius(&self, j: u32, x: f64) -> f64 {
        (f64::from(j) - 1.0) * self.r + x
    }

    /// Area of ring `R_k` within distance `disk_radius` of a point at
    /// distance `center_radius` from the field center — the generic form
    /// underlying both `A` and `B`.
    pub fn area_in_ring(&self, center_radius: f64, disk_radius: f64, k: u32) -> f64 {
        if k == 0 || k > self.p {
            return 0.0;
        }
        let outer = lens_area(f64::from(k) * self.r, disk_radius, center_radius);
        let inner = lens_area((f64::from(k) - 1.0) * self.r, disk_radius, center_radius);
        (outer - inner).max(0.0)
    }

    /// `A(x, k)`: area of ring `R_k` within transmission range of a node in
    /// ring `R_j` at offset `x`.
    pub fn a_area(&self, j: u32, x: f64, k: u32) -> f64 {
        debug_assert!((0.0..=self.r * (1.0 + 1e-12)).contains(&x));
        self.area_in_ring(self.node_radius(j, x), self.r, k)
    }

    /// `B(x, k)`: area of ring `R_k` within the carrier-sense annulus
    /// `(r, cs_factor·r]` of a node in ring `R_j` at offset `x`.
    pub fn b_area(&self, j: u32, x: f64, k: u32, cs_factor: f64) -> f64 {
        debug_assert!(cs_factor >= 1.0);
        let c = self.node_radius(j, x);
        (self.area_in_ring(c, cs_factor * self.r, k) - self.area_in_ring(c, self.r, k)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn ring_areas_sum_to_field() {
        let g = RingGeometry::new(5, 1.5);
        let total: f64 = (1..=5).map(|j| g.ring_area(j)).sum();
        assert!((total - g.field_area()).abs() < 1e-9);
        assert_eq!(g.ring_area(0), 0.0);
        assert_eq!(g.ring_area(6), 0.0);
    }

    #[test]
    fn ring_area_formula() {
        // C_j = π r² (j² − (j−1)²) = π r² (2j − 1)
        let g = RingGeometry::new(4, 2.0);
        for j in 1..=4u32 {
            let expect = PI * 4.0 * f64::from(2 * j - 1);
            assert!((g.ring_area(j) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn a_partition_sums_to_disk_for_interior_nodes() {
        let g = RingGeometry::new(6, 1.0);
        // Interior node (comm disk fully inside field): j=3, any x.
        for &x in &[0.0, 0.2, 0.5, 0.9, 1.0] {
            let total: f64 = (1..=6).map(|k| g.a_area(3, x, k)).sum();
            assert!(
                (total - PI).abs() < 1e-9,
                "x={x}: A-partition sums to {total}, want π"
            );
        }
    }

    #[test]
    fn a_nonzero_only_adjacent_rings() {
        let g = RingGeometry::new(6, 1.0);
        for &x in &[0.1, 0.5, 0.9] {
            for k in 1..=6u32 {
                let a = g.a_area(3, x, k);
                if (2..=4).contains(&k) {
                    // adjacent rings can be zero only at exact boundaries
                    assert!(a >= 0.0);
                } else {
                    assert!(a < 1e-12, "A({x},{k}) = {a} should be 0 for j=3");
                }
            }
        }
    }

    #[test]
    fn a_matches_paper_formulas() {
        // Paper: A(x, j−1) = f(r(j−1), r, x) with border-parameterized f.
        let g = RingGeometry::new(6, 1.0);
        let j = 3u32;
        for &x in &[0.1, 0.4, 0.8] {
            let expect_jm1 = nss_model::geometry::lens_area_border(f64::from(j - 1), 1.0, x);
            assert!((g.a_area(j, x, j - 1) - expect_jm1).abs() < 1e-12);
            // A(x, j) = f(rj, r, x−r) − A(x, j−1)
            let expect_j =
                nss_model::geometry::lens_area_border(f64::from(j), 1.0, x - 1.0) - expect_jm1;
            assert!((g.a_area(j, x, j) - expect_j).abs() < 1e-12);
            // A(x, j+1) = πr² − A(x,j−1) − A(x,j)
            let expect_jp1 = PI - expect_jm1 - expect_j;
            assert!((g.a_area(j, x, j + 1) - expect_jp1).abs() < 1e-9);
        }
    }

    #[test]
    fn innermost_ring_has_no_inner_neighbor() {
        let g = RingGeometry::new(5, 1.0);
        for &x in &[0.0, 0.3, 1.0] {
            assert_eq!(g.a_area(1, x, 0), 0.0);
            // disk around a ring-1 node covers only rings 1 and 2
            let total = g.a_area(1, x, 1) + g.a_area(1, x, 2);
            assert!((total - PI).abs() < 1e-9);
        }
    }

    #[test]
    fn outermost_ring_disk_spills_outside() {
        let g = RingGeometry::new(5, 1.0);
        // Node near the outer edge: part of its disk leaves the field.
        let x = 0.9;
        let total: f64 = (1..=5).map(|k| g.a_area(5, x, k)).sum();
        assert!(total < PI - 1e-6, "expected spill, got full π");
        assert!(total > 0.0);
    }

    #[test]
    fn b_partition_sums_to_annulus_for_deep_interior() {
        let g = RingGeometry::new(8, 1.0);
        // Node in ring 4: carrier disk radius 2 fully inside an 8-ring field.
        for &x in &[0.0, 0.5, 1.0] {
            let total: f64 = (1..=8).map(|k| g.b_area(4, x, k, 2.0)).sum();
            let expect = PI * 4.0 - PI;
            assert!(
                (total - expect).abs() < 1e-9,
                "x={x}: B-partition {total}, want {expect}"
            );
        }
    }

    #[test]
    fn b_nonzero_only_within_two_rings() {
        let g = RingGeometry::new(9, 1.0);
        for &x in &[0.2, 0.7] {
            for k in 1..=9u32 {
                let b = g.b_area(5, x, k, 2.0);
                if (3..=7).contains(&k) {
                    assert!(b >= 0.0);
                } else {
                    assert!(b < 1e-12, "B({x},{k}) = {b} should be 0 for j=5");
                }
            }
        }
    }

    #[test]
    fn b_disjoint_from_a() {
        // B excludes the transmission disk: A + B over ring k never exceeds
        // the carrier-disk coverage of that ring.
        let g = RingGeometry::new(8, 1.0);
        for &x in &[0.1, 0.6] {
            for k in 2..=6u32 {
                let a = g.a_area(4, x, k);
                let b = g.b_area(4, x, k, 2.0);
                let cover = g.area_in_ring(g.node_radius(4, x), 2.0, k);
                assert!(a + b <= cover + 1e-9);
                assert!((a + b - cover).abs() < 1e-9, "A+B should tile the cover");
            }
        }
    }

    #[test]
    fn custom_cs_factor() {
        let g = RingGeometry::new(10, 1.0);
        // factor 3 covers rings j−3..j+3 from the deep interior
        let total: f64 = (1..=10).map(|k| g.b_area(5, 0.5, k, 3.0)).sum();
        let expect = PI * 9.0 - PI;
        assert!((total - expect).abs() < 1e-9);
        // factor 1 → empty annulus
        let total: f64 = (1..=10).map(|k| g.b_area(5, 0.5, k, 1.0)).sum();
        assert!(total < 1e-12);
    }

    #[test]
    fn node_radius_offsets() {
        let g = RingGeometry::new(5, 2.0);
        assert_eq!(g.node_radius(1, 0.0), 0.0);
        assert_eq!(g.node_radius(1, 2.0), 2.0);
        assert_eq!(g.node_radius(3, 0.5), 4.5);
    }
}
