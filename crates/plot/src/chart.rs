//! Multi-series line charts.

use crate::scale::{format_tick, nice_ticks, LinearScale};
use crate::svg::SvgDoc;
use std::io;
use std::path::Path;

/// An 8-color palette (Okabe–Ito, colorblind-safe).
const PALETTE: [&str; 8] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9", "#F0E442", "#000000",
];

// Canvas size in pixels.
const WIDTH: u32 = 720;
const HEIGHT: u32 = 480;

/// One plotted series: a label and data points. `None` y-values break the
/// line (the paper's figures omit infeasible parameter combinations).
#[derive(Debug, Clone)]
pub struct Series {
    label: String,
    points: Vec<(f64, Option<f64>)>,
}

impl Series {
    /// A fully-defined series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points: points.into_iter().map(|(x, y)| (x, Some(y))).collect(),
        }
    }

    /// A series with gaps: `None` y-values are skipped and split the line.
    pub fn with_gaps(label: impl Into<String>, points: Vec<(f64, Option<f64>)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    fn finite_points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points
            .iter()
            .filter_map(|&(x, y)| y.map(|y| (x, y)))
            .filter(|(x, y)| x.is_finite() && y.is_finite())
    }

    /// Contiguous runs of defined points (polyline segments).
    fn segments(&self) -> Vec<Vec<(f64, f64)>> {
        let mut segs = Vec::new();
        let mut cur = Vec::new();
        for &(x, y) in &self.points {
            match y {
                Some(y) if x.is_finite() && y.is_finite() => cur.push((x, y)),
                _ => {
                    if !cur.is_empty() {
                        segs.push(std::mem::take(&mut cur));
                    }
                }
            }
        }
        if !cur.is_empty() {
            segs.push(cur);
        }
        segs
    }
}

/// A line chart under construction: a 720×480 canvas whose y-axis spans
/// the data with 5% padding.
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series (builder style).
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    fn data_extent(&self) -> ((f64, f64), (f64, f64)) {
        let mut x = (f64::INFINITY, f64::NEG_INFINITY);
        let mut y = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for (px, py) in s.finite_points() {
                x.0 = x.0.min(px);
                x.1 = x.1.max(px);
                y.0 = y.0.min(py);
                y.1 = y.1.max(py);
            }
        }
        if !x.0.is_finite() {
            x = (0.0, 1.0);
            y = (0.0, 1.0);
        }
        if x.0 == x.1 {
            x = (x.0 - 0.5, x.1 + 0.5);
        }
        if y.0 == y.1 {
            y = (y.0 - 0.5, y.1 + 0.5);
        }
        // 5% vertical padding.
        let pad = (y.1 - y.0) * 0.05;
        ((x.0, x.1), (y.0 - pad, y.1 + pad))
    }

    /// Renders the chart to an SVG string.
    pub fn render_svg(&self) -> String {
        let w = f64::from(WIDTH);
        let h = f64::from(HEIGHT);
        let (ml, mr, mt, mb) = (64.0, 16.0, 36.0, 48.0); // margins
        let legend_w = if self.series.len() > 1 { 120.0 } else { 0.0 };
        let plot = (ml, w - mr - legend_w, mt, h - mb); // x0, x1, y0, y1

        let ((dx0, dx1), (dy0, dy1)) = self.data_extent();
        let xs = LinearScale::new(dx0, dx1, plot.0, plot.1);
        let ys = LinearScale::new(dy0, dy1, plot.3, plot.2); // inverted

        let mut doc = SvgDoc::new(WIDTH, HEIGHT);

        // Frame.
        doc.line(plot.0, plot.3, plot.1, plot.3, "#333", 1.0); // x axis
        doc.line(plot.0, plot.2, plot.0, plot.3, "#333", 1.0); // y axis

        // Ticks + grid.
        for t in nice_ticks(dx0, dx1, 8) {
            if t < dx0 - 1e-9 || t > dx1 + 1e-9 {
                continue;
            }
            let px = xs.map(t);
            doc.line(px, plot.3, px, plot.3 + 4.0, "#333", 1.0);
            doc.line(px, plot.2, px, plot.3, "#eee", 0.5);
            doc.text(px, plot.3 + 16.0, &format_tick(t), 11.0, "middle");
        }
        for t in nice_ticks(dy0, dy1, 6) {
            if t < dy0 - 1e-9 || t > dy1 + 1e-9 {
                continue;
            }
            let py = ys.map(t);
            doc.line(plot.0 - 4.0, py, plot.0, py, "#333", 1.0);
            doc.line(plot.0, py, plot.1, py, "#eee", 0.5);
            doc.text(plot.0 - 7.0, py + 4.0, &format_tick(t), 11.0, "end");
        }

        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            for seg in s.segments() {
                let pixels: Vec<(f64, f64)> =
                    seg.iter().map(|&(x, y)| (xs.map(x), ys.map(y))).collect();
                doc.polyline(&pixels, color, 1.6);
                for &(px, py) in &pixels {
                    doc.circle(px, py, 2.4, color);
                }
            }
        }

        // Legend.
        if self.series.len() > 1 {
            let lx = plot.1 + 12.0;
            let mut ly = plot.2 + 8.0;
            for (i, s) in self.series.iter().enumerate() {
                let color = PALETTE[i % PALETTE.len()];
                doc.line(lx, ly, lx + 18.0, ly, color, 2.0);
                doc.circle(lx + 9.0, ly, 2.4, color);
                doc.text(lx + 24.0, ly + 4.0, &s.label, 11.0, "start");
                ly += 18.0;
            }
        }

        // Labels.
        doc.text(w / 2.0, 20.0, &self.title, 14.0, "middle");
        doc.text(
            (plot.0 + plot.1) / 2.0,
            h - 12.0,
            &self.x_label,
            12.0,
            "middle",
        );
        doc.vtext(18.0, (plot.2 + plot.3) / 2.0, &self.y_label, 12.0);

        doc.finish()
    }

    /// Renders and writes the chart to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render_svg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chart() -> Chart {
        Chart::new("t", "x", "y")
            .with_series(Series::new("a", vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)]))
            .with_series(Series::new("b", vec![(0.0, 1.0), (2.0, 0.0)]))
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = sample_chart().render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // two series → two polylines at least (plus grid lines as <line>)
        assert!(svg.matches("<polyline").count() >= 2);
        // legend present for 2 series
        assert!(svg.contains(">a</text>"));
        assert!(svg.contains(">b</text>"));
        // axis labels + title
        assert!(svg.contains(">t</text>"));
        assert!(svg.contains(">x</text>"));
        assert!(svg.contains(">y</text>"));
    }

    #[test]
    fn empty_chart_renders() {
        let svg = Chart::new("empty", "x", "y").render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn single_point_series() {
        let svg = Chart::new("p", "x", "y")
            .with_series(Series::new("s", vec![(1.0, 1.0)]))
            .render_svg();
        // No polyline from a single point, but a marker.
        assert!(!svg.contains("<polyline"));
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn gaps_split_polylines() {
        let s = Series::with_gaps(
            "g",
            vec![
                (0.0, Some(1.0)),
                (1.0, Some(2.0)),
                (2.0, None),
                (3.0, Some(1.5)),
                (4.0, Some(1.0)),
            ],
        );
        assert_eq!(s.segments().len(), 2);
        let svg = Chart::new("g", "x", "y").with_series(s).render_svg();
        assert_eq!(svg.matches("<polyline").count(), 2);
    }

    #[test]
    fn nan_points_dropped() {
        let s = Series::new("n", vec![(0.0, 0.0), (1.0, f64::NAN), (2.0, 2.0)]);
        assert_eq!(s.segments().len(), 2);
        let svg = Chart::new("n", "x", "y").with_series(s).render_svg();
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("nss_plot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chart.svg");
        sample_chart().save(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("<svg"));
        std::fs::remove_file(&path).ok();
    }
}
