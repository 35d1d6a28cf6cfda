//! Table 1: Java latency speedups relative to request #1.
//!
//! The paper invokes four Java benchmarks for up to 1 000 requests and
//! reports, at requests 200/400/600/800, the speedup of the local latency
//! over the first request (Hash 27 ms, HTML 650 ms, WordCount 64 ms,
//! JSON 360 ms baselines) — non-monotonic because of deoptimizations and
//! compilation interference.

use crate::ExperimentContext;
use pronghorn_jit::Runtime;
use pronghorn_metrics::{table::fmt_f64, Table, TableStyle};
use pronghorn_sim::RngFactory;
use pronghorn_workloads::{table1_benchmarks, InputVariance, Workload};

/// Checkpoints at which speedups are reported.
pub const CHECKPOINTS: [usize; 4] = [200, 400, 600, 800];

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
    let factory = RngFactory::new(seed);
    let mut boot_rng = factory.stream("boot");
    let (mut runtime, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut boot_rng,
    );
    let mut exec_rng = factory.stream("exec");
    let mut latencies = Vec::with_capacity(1_000);
    for i in 0..1_000u64 {
        let mut input_rng = factory.stream_indexed("input", i);
        let request = workload.generate(&mut input_rng, InputVariance::none());
        latencies.push(runtime.execute(&request, &mut exec_rng).total_us());
    }
    let first = latencies[0];
    let local_median = |center: usize| -> f64 {
        let lo = center.saturating_sub(10);
        let hi = (center + 10).min(latencies.len());
        let mut w = latencies[lo..hi].to_vec();
        w.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        w[w.len() / 2]
    };
    SpeedupColumn {
        workload: workload.name().to_string(),
        first_request_ms: first / 1_000.0,
        speedups: CHECKPOINTS
            .iter()
            .map(|&c| first / local_median(c))
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

impl Table1Result {
    /// Paper-style rendering: benchmarks as columns, checkpoints as rows.
    pub fn render(&self) -> String {
        let mut header = vec!["".to_string()];
        header.extend(self.columns.iter().map(|c| c.workload.clone()));
        let mut table = Table::new(header);
        let mut baseline_row = vec!["Request #1 (baseline)".to_string()];
        baseline_row.extend(
            self.columns
                .iter()
                .map(|c| format!("{:.0} ms", c.first_request_ms)),
        );
        table.row(baseline_row);
        for (i, &checkpoint) in CHECKPOINTS.iter().enumerate() {
            let mut row = vec![format!("Request #{checkpoint}")];
            row.extend(
                self.columns
                    .iter()
                    .map(|c| format!("{}x", fmt_f64(c.speedups[i], 1))),
            );
            table.row(row);
        }
        format!(
            "Table 1: function latency speedup vs the first request (Java)\n\n{}",
            table.render(TableStyle::Plain)
        )
    }

    /// CSV form.
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "first_request_ms",
            "r200",
            "r400",
            "r600",
            "r800",
        ]);
        for c in &self.columns {
            let mut row = vec![c.workload.clone(), format!("{:.1}", c.first_request_ms)];
            row.extend(c.speedups.iter().map(|s| format!("{s:.2}")));
            table.row(row);
        }
        table.to_csv()
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
        for needle in [
            "Request #1 (baseline)",
            "Request #200",
            "Request #800",
            "JSON",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
    }
}
