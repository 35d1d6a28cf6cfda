//! Figures 4 and 5: end-to-end latency CDFs across the evaluation grid.
//!
//! Figure 4: the nine Python benchmarks (rows) × eviction rates 1/4/20
//! (columns) × three orchestration strategies (curves). Figure 5: the four
//! Java benchmarks over the same grid. 500 invocations per cell, with the
//! §5.1 input variance.

use crate::grid::{run_grid, Grid, PAPER_POLICIES, PAPER_RATES};
use crate::render::ascii_cdf;
use crate::sweep::{fields_table, Field, Rows, Value};
use crate::ExperimentContext;

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

impl Rows for FigureResult {
    /// Renders every panel as an ASCII CDF plot, then the rows.
    fn render(&self) -> String {
        let mut out = format!(
            "Figure {}: end-to-end request latency CDFs ({} invocations per cell)\n\n",
            self.figure,
            self.grid
                .cells
                .first()
                .map_or(0, |c| c.result.latencies_us.len())
        );
        for workload in self.grid.workloads() {
            for &rate in &PAPER_RATES {
                out.push_str(&format!(
                    "--- {workload} | eviction every {rate} request(s) ---\n"
                ));
                let curves: Vec<_> = PAPER_POLICIES
                    .iter()
                    .filter_map(|&policy| {
                        let cdf = self.grid.cell(&workload, policy, rate)?.result.cdf()?;
                        Some((policy.label(), cdf))
                    })
                    .collect();
                out.push_str(&ascii_cdf(&curves, 64, 12));
                out.push('\n');
            }
        }
        out + &fields_table(&self.rows())
    }

    /// The medians and quartiles behind the plots, one row per cell.
    fn rows(&self) -> Vec<Vec<Field>> {
        self.grid
            .cells
            .iter()
            .map(|cell| {
                let r = &cell.result;
                vec![
                    ("workload", Value::Label(cell.workload.clone())),
                    ("rate", Value::Uint(u64::from(cell.rate))),
                    ("policy", Value::Str(cell.policy.label())),
                    ("median_us", Value::Float(r.median_us(), 1)),
                    ("p25_us", Value::Float(r.percentile_us(25.0), 1)),
                    ("p75_us", Value::Float(r.percentile_us(75.0), 1)),
                    ("p90_us", Value::Float(r.percentile_us(90.0), 1)),
                ]
            })
            .collect()
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
