//! Figures 4 and 5: end-to-end latency CDFs across the evaluation grid.
//!
//! Figure 4: the nine Python benchmarks (rows) × eviction rates 1/4/20
//! (columns) × three orchestration strategies (curves). Figure 5: the four
//! Java benchmarks over the same grid. 500 invocations per cell, with the
//! §5.1 input variance.

use crate::grid::{run_grid, Grid, PAPER_POLICIES, PAPER_RATES};
use crate::render::ascii_cdf;
use crate::ExperimentContext;
use pronghorn_metrics::Table;

/// Figure 4's benchmark rows, paper order.
pub const FIG4_BENCHMARKS: [&str; 9] = [
    "BFS",
    "DFS",
    "DynamicHTML",
    "MST",
    "PageRank",
    "Compression",
    "Uploader",
    "Thumbnailer",
    "Video",
];

/// Figure 5's benchmark rows, paper order.
pub const FIG5_BENCHMARKS: [&str; 4] = ["MatrixMult", "Hash", "HTMLRendering", "WordCount"];

/// A completed figure: the grid plus which figure it is.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// `4` or `5`.
    pub figure: u8,
    /// The underlying grid.
    pub grid: Grid,
}

/// Runs Figure 4 (Python benchmarks).
pub fn run_fig4(ctx: &ExperimentContext) -> FigureResult {
    FigureResult {
        figure: 4,
        grid: run_grid(ctx, &FIG4_BENCHMARKS, &PAPER_POLICIES, &PAPER_RATES),
    }
}

/// Runs Figure 5 (Java benchmarks).
pub fn run_fig5(ctx: &ExperimentContext) -> FigureResult {
    FigureResult {
        figure: 5,
        grid: run_grid(ctx, &FIG5_BENCHMARKS, &PAPER_POLICIES, &PAPER_RATES),
    }
}

impl FigureResult {
    /// Renders every panel as an ASCII CDF plot plus a median table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure {}: end-to-end request latency CDFs ({} invocations per cell)\n\n",
            self.figure,
            self.grid
                .cells
                .first()
                .map(|c| c.result.latencies_us.len())
                .unwrap_or(0)
        );
        for workload in self.grid.workloads() {
            for &rate in &PAPER_RATES {
                out.push_str(&format!(
                    "--- {workload} | eviction every {rate} request(s) ---\n"
                ));
                let mut curves = Vec::new();
                for &policy in &PAPER_POLICIES {
                    if let Some(cell) = self.grid.cell(&workload, policy, rate) {
                        if let Some(cdf) = cell.result.cdf() {
                            curves.push((policy.label(), cdf));
                        }
                    }
                }
                let refs: Vec<(&str, &pronghorn_metrics::Cdf)> =
                    curves.iter().map(|(l, c)| (*l, c)).collect();
                out.push_str(&ascii_cdf(&refs, 64, 12));
                for &policy in &PAPER_POLICIES {
                    out.push_str(&format!(
                        "     median[{}] = {:.0}µs\n",
                        policy.label(),
                        self.grid.median(&workload, policy, rate)
                    ));
                }
                if let Some(imp) = self.grid.improvement_pct(&workload, rate) {
                    out.push_str(&format!(
                        "     request-centric vs after-1st: {imp:+.1}% median\n"
                    ));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Medians CSV (one row per cell) — the numbers behind the plots.
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "rate",
            "policy",
            "median_us",
            "p25_us",
            "p75_us",
            "p90_us",
        ]);
        for cell in &self.grid.cells {
            table.row(vec![
                cell.workload.clone(),
                cell.rate.to_string(),
                cell.policy.label().to_string(),
                format!("{:.1}", cell.result.median_us()),
                format!("{:.1}", cell.result.percentile_us(25.0)),
                format!("{:.1}", cell.result.percentile_us(75.0)),
                format!("{:.1}", cell.result.percentile_us(90.0)),
            ]);
        }
        table.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext {
            invocations: 60,
            ..ExperimentContext::quick()
        }
    }

    #[test]
    fn fig5_runs_all_cells() {
        let result = run_fig5(&tiny_ctx());
        assert_eq!(result.figure, 5);
        assert_eq!(result.grid.cells.len(), 4 * 3 * 3);
        let text = result.render();
        assert!(text.contains("HTMLRendering"));
        assert!(text.contains("request-centric"));
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let result = run_fig5(&tiny_ctx());
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + 36);
    }

    #[test]
    fn csv_bytes_do_not_depend_on_thread_count() {
        let figure = |threads| FigureResult {
            figure: 5,
            grid: run_grid(
                &ExperimentContext {
                    threads,
                    ..tiny_ctx()
                },
                &["Hash", "MatrixMult"],
                &PAPER_POLICIES,
                &PAPER_RATES,
            ),
        };
        let one = figure(1).to_csv();
        assert_eq!(one, figure(2).to_csv());
        // Rows follow the task order: benchmark, then rate, then policy.
        let keys: Vec<&str> = one
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(keys[..9], ["Hash"; 9]);
        assert_eq!(keys[9..], ["MatrixMult"; 9]);
    }

    #[test]
    fn fig4_benchmark_list_matches_paper_rows() {
        assert_eq!(FIG4_BENCHMARKS.len(), 9);
        assert_eq!(FIG5_BENCHMARKS.len(), 4);
        for b in crate::sweep::paper_benchmarks() {
            assert!(pronghorn_workloads::by_name(b).is_some(), "{b} missing");
        }
    }
}
