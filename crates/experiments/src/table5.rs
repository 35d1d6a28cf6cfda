//! Table 5: maximum storage and network bandwidth vs the state of the art.
//!
//! The paper computes, per benchmark: maximum storage = pool capacity `C`
//! times the average snapshot size; baseline storage = one snapshot;
//! maximum network = **2 ×** container lifetimes × snapshot size (each
//! lifetime uploads one checkpoint and downloads one restore during
//! exploration); baseline network = half of that (restore only). The
//! published numbers correspond to 125 lifetimes (500 invocations at
//! eviction rate 4). We report both the analytic bound and the bytes the
//! simulated Object Store actually moved.

use crate::sweep::{fields_table, Field, Rows, Value};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{run_closed_loop, RunConfig};
use pronghorn_workloads::{evaluation_benchmarks, Workload};

/// Pool capacity of the paper's configuration.
const POOL_CAPACITY: f64 = 12.0;

/// One benchmark's Table 5 row.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub workload: String,
    /// Runtime label.
    pub runtime: String,
    /// Average snapshot size, MB.
    pub snapshot_mb: f64,
    /// Analytic maximum storage, MB (`C ×` snapshot).
    pub max_storage_mb: f64,
    /// Analytic maximum network, MB (`2 ×` lifetimes `×` snapshot).
    pub max_network_mb: f64,
    /// Baseline storage, MB (one snapshot).
    pub baseline_storage_mb: f64,
    /// Baseline network, MB (lifetimes `×` snapshot).
    pub baseline_network_mb: f64,
    /// Bytes the simulated store actually transferred (nominal), MB.
    pub measured_network_mb: f64,
    /// Peak nominal bytes pooled during the run, MB.
    pub measured_peak_storage_mb: f64,
}

/// Table 5's full result.
#[derive(Debug, Clone)]
pub struct Table5Result {
    /// One row per benchmark.
    pub rows: Vec<Table5Row>,
    /// Container lifetimes used in the analytic bound.
    pub lifetimes: u32,
}

/// Runs Table 5 (eviction rate 4 — the rate that reproduces the paper's
/// published numbers).
pub fn run(ctx: &ExperimentContext) -> Table5Result {
    const RATE: u32 = 4;
    let lifetimes = ctx.invocations / RATE;
    let rows = evaluation_benchmarks()
        .iter()
        .map(|b| {
            let seed = ctx.cell_seed(&["table5", b.name()]);
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, RATE, seed)
                .with_invocations(ctx.invocations);
            let result = run_closed_loop(b, &cfg);
            let snapshot_mb = result.mean_snapshot_mb();
            const MB: f64 = 1024.0 * 1024.0;
            Table5Row {
                workload: b.name().to_string(),
                runtime: b.kind().label().to_string(),
                snapshot_mb,
                max_storage_mb: POOL_CAPACITY * snapshot_mb,
                max_network_mb: 2.0 * f64::from(lifetimes) * snapshot_mb,
                baseline_storage_mb: snapshot_mb,
                baseline_network_mb: f64::from(lifetimes) * snapshot_mb,
                measured_network_mb: (result.overheads.nominal_bytes_uploaded
                    + result.overheads.nominal_bytes_downloaded)
                    as f64
                    / MB,
                measured_peak_storage_mb: result.overheads.peak_pool_nominal_bytes as f64 / MB,
            }
        })
        .collect();
    Table5Result { rows, lifetimes }
}

impl Rows for Table5Result {
    /// One row per benchmark.
    fn rows(&self) -> Vec<Vec<Field>> {
        self.rows
            .iter()
            .map(|r| {
                vec![
                    ("workload", Value::Label(r.workload.clone())),
                    ("runtime", Value::Label(r.runtime.clone())),
                    ("snapshot_mb", Value::Float(r.snapshot_mb, 2)),
                    ("max_storage_mb", Value::Float(r.max_storage_mb, 1)),
                    ("max_network_mb", Value::Float(r.max_network_mb, 1)),
                    (
                        "baseline_storage_mb",
                        Value::Float(r.baseline_storage_mb, 1),
                    ),
                    (
                        "baseline_network_mb",
                        Value::Float(r.baseline_network_mb, 1),
                    ),
                    (
                        "measured_network_mb",
                        Value::Float(r.measured_network_mb, 1),
                    ),
                    (
                        "measured_peak_storage_mb",
                        Value::Float(r.measured_peak_storage_mb, 1),
                    ),
                ]
            })
            .collect()
    }

    /// Printed table.
    fn render(&self) -> String {
        format!(
            "Table 5: storage and network overheads ({} container lifetimes)\n\n{}",
            self.lifetimes,
            fields_table(&self.rows())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_bounds_follow_paper_formulas() {
        let ctx = ExperimentContext {
            invocations: 200,
            ..ExperimentContext::quick()
        };
        let result = run(&ctx);
        assert_eq!(result.lifetimes, 50);
        assert_eq!(result.rows.len(), 13);
        for r in &result.rows {
            assert!(
                r.snapshot_mb > 5.0,
                "{}: snapshot {}",
                r.workload,
                r.snapshot_mb
            );
            assert!((r.max_storage_mb - 12.0 * r.snapshot_mb).abs() < 1e-9);
            assert!((r.max_network_mb - 2.0 * r.baseline_network_mb).abs() < 1e-9);
            // Pronghorn stores up to C× the baseline.
            assert!(r.max_storage_mb >= r.baseline_storage_mb * 11.9);
            // The simulated store moved a nonzero volume bounded by the
            // analytic maximum (checkpointing stops once W is explored).
            assert!(r.measured_network_mb > 0.0, "{}", r.workload);
        }
    }

    #[test]
    fn jvm_rows_are_an_order_cheaper_than_pypy() {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        let result = run(&ctx);
        let jvm_avg: f64 = result
            .rows
            .iter()
            .filter(|r| r.runtime == "jvm")
            .map(|r| r.snapshot_mb)
            .sum::<f64>()
            / 4.0;
        let pypy_avg: f64 = result
            .rows
            .iter()
            .filter(|r| r.runtime == "pypy")
            .map(|r| r.snapshot_mb)
            .sum::<f64>()
            / 9.0;
        assert!(
            pypy_avg > jvm_avg * 3.0,
            "pypy {pypy_avg} MB vs jvm {jvm_avg} MB"
        );
    }
}
