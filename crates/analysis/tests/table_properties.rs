//! Property tests for the table-driven kernel: the precomputed geometry
//! tables must agree with direct lens-area evaluation, and their quadrature
//! must replay Simpson integration bitwise.

use nss_analysis::prelude::*;
use nss_analysis::tables::GeometryTables;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A(x_q, j, k) and B(x_q, j, k) read from the tables match direct
    /// geometry evaluation at every Simpson abscissa (to 1e-12; they are in
    /// fact stored verbatim).
    #[test]
    fn tables_match_direct_geometry(
        p in 1u32..8,
        r in 0.2f64..3.0,
        quad in 2usize..80,
        cs_factor in 1.1f64..3.0,
    ) {
        let geom = RingGeometry::new(p, r);
        let tables = GeometryTables::build(p, r, quad, Some(cs_factor));
        for j in 1..=p {
            for k in 1..=p {
                for (i, &x) in tables.abscissae().iter().enumerate() {
                    let a_direct = geom.a_area(j, x, k);
                    let b_direct = geom.b_area(j, x, k, cs_factor);
                    prop_assert!(
                        (tables.a(j, k, i) - a_direct).abs() <= 1e-12,
                        "A({j},{x},{k}): table {} vs direct {a_direct}",
                        tables.a(j, k, i)
                    );
                    prop_assert!(
                        (tables.b(j, k, i) - b_direct).abs() <= 1e-12,
                        "B({j},{x},{k}): table {} vs direct {b_direct}",
                        tables.b(j, k, i)
                    );
                }
            }
        }
    }

    /// The quadrature weights baked into `integrate` reproduce plain
    /// Simpson integration of an arbitrary smooth function bitwise.
    #[test]
    fn integrate_matches_simpson(
        r in 0.2f64..3.0,
        quad in 2usize..80,
        a in -2.0f64..2.0,
        b in 0.1f64..4.0,
    ) {
        let tables = GeometryTables::build(3, r, quad, None);
        let f = |x: f64| (a + x) * (b * x).cos() + x * x;
        let direct = nss_analysis::quadrature::simpson(f, 0.0, r, quad);
        let tabled = tables.integrate(|_, x| f(x));
        prop_assert_eq!(direct.to_bits(), tabled.to_bits());
    }
}
