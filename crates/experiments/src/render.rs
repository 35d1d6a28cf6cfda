//! Text rendering: ASCII CDF plots and warm-up series.

use pronghorn_metrics::{bucket_medians, Cdf};

/// Renders one or more CDFs on a shared log-x ASCII canvas — the textual
/// equivalent of a Figure 4/5/6 panel.
///
/// Each curve gets its own glyph; the legend is appended below the canvas.
pub fn ascii_cdf(curves: &[(&str, Cdf)], width: usize, height: usize) -> String {
    const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    if curves.is_empty() || width < 8 || height < 3 {
        return String::new();
    }
    let lo = curves
        .iter()
        .map(|(_, c)| c.inverse(0.0))
        .fold(f64::INFINITY, f64::min)
        .max(1e-9);
    let hi = curves
        .iter()
        .map(|(_, c)| c.inverse(1.0))
        .fold(0.0f64, f64::max)
        .max(lo * 1.0001);
    let (llo, lhi) = (lo.ln(), hi.ln());
    let mut canvas = vec![vec![' '; width]; height];
    for (ci, (_, cdf)) in curves.iter().enumerate() {
        let glyph = GLYPHS[ci % GLYPHS.len()];
        #[allow(clippy::needless_range_loop)]
        for col in 0..width {
            let x = (llo + (lhi - llo) * col as f64 / (width - 1) as f64).exp();
            let f = cdf.eval(x);
            let row = ((1.0 - f) * (height - 1) as f64).round() as usize;
            canvas[row.min(height - 1)][col] = glyph;
        }
    }
    let mut out = String::new();
    for (i, row) in canvas.iter().enumerate() {
        let label = if i == 0 {
            "1.0 |"
        } else if i == height - 1 {
            "0.0 |"
        } else {
            "    |"
        };
        out.push_str(label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "    +{}\n     {:<12.0}µs{}{:>12.0}µs\n",
        "-".repeat(width),
        lo,
        " ".repeat(width.saturating_sub(26)),
        hi
    ));
    for (ci, (name, _)) in curves.iter().enumerate() {
        out.push_str(&format!("     {} {}\n", GLYPHS[ci % GLYPHS.len()], name));
    }
    out
}

/// Renders a latency-vs-request-number series as a downsampled ASCII sparkline
/// block — the textual Figure 1.
pub fn ascii_series(values: &[f64], width: usize, height: usize) -> String {
    if values.is_empty() || width < 4 || height < 2 {
        return String::new();
    }
    // Downsample by bucket medians to suppress noise.
    let points = bucket_medians(values, width);
    let lo = points.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = points.iter().cloned().fold(0.0f64, f64::max).max(lo + 1e-9);
    let mut canvas = vec![vec![' '; points.len()]; height];
    for (col, &v) in points.iter().enumerate() {
        let frac = (v - lo) / (hi - lo);
        let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
        canvas[row.min(height - 1)][col] = '*';
    }
    let mut out = String::new();
    for (i, row) in canvas.iter().enumerate() {
        let prefix = if i == 0 {
            format!("{hi:>9.0} |")
        } else if i == height - 1 {
            format!("{lo:>9.0} |")
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&prefix);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>9} +{}\n{:>10} request 1 .. {}\n",
        "",
        "-".repeat(points.len()),
        "",
        values.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_plot_contains_all_curves() {
        let a = Cdf::new(vec![1_000.0, 2_000.0, 4_000.0]).unwrap();
        let b = Cdf::new(vec![10_000.0, 20_000.0]).unwrap();
        let plot = ascii_cdf(&[("fast", a), ("slow", b)], 40, 10);
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.contains("fast"));
        assert!(plot.contains("slow"));
        assert!(plot.lines().count() > 10);
    }

    #[test]
    fn degenerate_plot_inputs_yield_empty() {
        assert!(ascii_cdf(&[], 40, 10).is_empty());
        let c = Cdf::new(vec![1.0]).unwrap();
        assert!(ascii_cdf(&[("x", c)], 2, 10).is_empty());
    }

    #[test]
    fn series_plot_shows_descending_warmup() {
        let values: Vec<f64> = (0..500).map(|i| 10_000.0 - 15.0 * i as f64).collect();
        let plot = ascii_series(&values, 60, 8);
        assert!(plot.contains('*'));
        // First row is labeled with the (larger) max bucket median, last
        // canvas row with the min; both labels parse and are ordered.
        let labels: Vec<f64> = plot
            .lines()
            .filter_map(|l| l.split('|').next())
            .filter_map(|l| l.trim().parse::<f64>().ok())
            .collect();
        assert_eq!(labels.len(), 2, "{plot}");
        assert!(labels[0] > labels[1], "{plot}");
        // A descending series starts top-left: the first canvas row should
        // have its '*' before the last row's.
        let first_star = plot.lines().next().unwrap().find('*');
        assert!(first_star.is_some(), "{plot}");
    }

    #[test]
    fn series_plot_handles_empty() {
        assert!(ascii_series(&[], 40, 8).is_empty());
    }
}
