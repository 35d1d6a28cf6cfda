//! Table 1: Java latency speedups relative to request #1.
//!
//! The paper invokes four Java benchmarks for up to 1 000 requests and
//! reports, at requests 200/400/600/800, the speedup of the local latency
//! over the first request (Hash 27 ms, HTML 650 ms, WordCount 64 ms,
//! JSON 360 ms baselines) — non-monotonic because of deoptimizations and
//! compilation interference.

use crate::fig1::{warmup_latencies, window_median};
use crate::sweep::{fields_table, Field, Rows, Value};
use crate::ExperimentContext;
use pronghorn_workloads::{table1_benchmarks, Workload};

/// Request numbers at which speedups are reported, with their columns.
pub const CHECKPOINTS: [(usize, &str); 4] =
    [(200, "r200"), (400, "r400"), (600, "r600"), (800, "r800")];

/// One benchmark's Table 1 column.
#[derive(Debug, Clone)]
pub struct SpeedupColumn {
    /// Benchmark name.
    pub workload: String,
    /// First-request latency, ms (the paper's "Request #1 (baseline)").
    pub first_request_ms: f64,
    /// Speedup factors at [`CHECKPOINTS`].
    pub speedups: Vec<f64>,
}

/// Table 1's full result.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One column per benchmark (Hash, HTML, WordCount, JSON).
    pub columns: Vec<SpeedupColumn>,
}

/// Runs one benchmark for 1 000 sequential requests on a single worker.
pub fn speedup_column(workload: &dyn Workload, seed: u64) -> SpeedupColumn {
    let latencies = warmup_latencies(workload, 1_000, seed);
    let first = latencies[0];
    let local_median = |center: usize| {
        window_median(&latencies[center.saturating_sub(10)..(center + 10).min(latencies.len())])
    };
    SpeedupColumn {
        workload: workload.name().to_string(),
        first_request_ms: first / 1_000.0,
        speedups: CHECKPOINTS
            .iter()
            .map(|&(c, _)| first / local_median(c))
            .collect(),
    }
}

/// Runs Table 1 for the four Java benchmarks.
pub fn run(ctx: &ExperimentContext) -> Table1Result {
    Table1Result {
        columns: table1_benchmarks()
            .iter()
            .map(|b| speedup_column(b, ctx.cell_seed(&["table1", b.name()])))
            .collect(),
    }
}

impl Rows for Table1Result {
    /// One row per benchmark: the first-request latency, then the
    /// speedup at each of [`CHECKPOINTS`].
    fn rows(&self) -> Vec<Vec<Field>> {
        self.columns
            .iter()
            .map(|c| {
                let mut row = vec![
                    ("workload", Value::Label(c.workload.clone())),
                    ("first_request_ms", Value::Float(c.first_request_ms, 1)),
                ];
                let speedups = CHECKPOINTS.iter().zip(&c.speedups);
                row.extend(speedups.map(|(&(_, key), &s)| (key, Value::Float(s, 2))));
                row
            })
            .collect()
    }

    /// Printed table.
    fn render(&self) -> String {
        format!(
            "Table 1: function latency speedup vs the first request (Java)\n\n{}",
            fields_table(&self.rows())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_baselines_near_paper_values() {
        let ctx = ExperimentContext::quick();
        let result = run(&ctx);
        let names: Vec<&str> = result.columns.iter().map(|c| c.workload.as_str()).collect();
        assert_eq!(names, ["Hash", "HTMLRendering", "WordCount", "JSON"]);
        // Paper: 27 / 650 / 64 / 360 ms. Allow ±40% (jittered lazy init).
        for (col, target) in result.columns.iter().zip([27.0, 650.0, 64.0, 360.0]) {
            let rel = (col.first_request_ms - target).abs() / target;
            assert!(
                rel < 0.4,
                "{}: first request {:.0} ms vs paper {target} ms",
                col.workload,
                col.first_request_ms
            );
        }
    }

    #[test]
    fn speedups_exceed_one_and_grow_overall() {
        let ctx = ExperimentContext::quick();
        let result = run(&ctx);
        for col in &result.columns {
            for &s in &col.speedups {
                assert!(s > 1.0, "{}: speedup {s}", col.workload);
                assert!(s < 20.0, "{}: speedup {s} implausible", col.workload);
            }
            // By request 800 the function should be meaningfully faster
            // than request #1 (Table 1 reports 1.8x–5.9x at these points).
            assert!(
                *col.speedups.last().expect("4 checkpoints") > 1.5,
                "{}: tail speedup {:?}",
                col.workload,
                col.speedups
            );
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let ctx = ExperimentContext::quick();
        let text = run(&ctx).render();
        for needle in ["first_request_ms", "r200", "r800", "JSON"] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
    }
}
