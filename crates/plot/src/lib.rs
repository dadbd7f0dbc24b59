//! # nss-plot — minimal SVG line charts
//!
//! A dependency-free renderer sufficient to regenerate the paper's figures
//! (multi-series line charts with markers, axes, ticks, and a legend) as
//! standalone SVG files. Not a general plotting library: exactly the
//! surface the reproduction harness needs, implemented carefully.
//!
//! ```
//! use nss_plot::{Chart, Series};
//!
//! let svg = Chart::new("reachability vs p", "p", "reachability")
//!     .with_series(Series::new("rho=20", vec![(0.1, 0.3), (0.5, 0.8), (1.0, 0.6)]))
//!     .with_series(Series::new("rho=140", vec![(0.1, 0.6), (0.5, 0.5), (1.0, 0.4)]))
//!     .render_svg();
//! assert!(svg.starts_with("<svg"));
//! ```

#![warn(missing_docs)]

pub mod chart;
pub mod scale;
pub mod svg;

pub use chart::{Chart, Series};
pub use scale::{nice_ticks, LinearScale};
