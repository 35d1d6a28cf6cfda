//! The evaluation grid runner: benchmarks × policies × eviction rates,
//! executed in parallel through the shared [`crate::sweep`] harness.
//!
//! Cells that differ only in policy share a seed, so the workload-input
//! stream is identical across policies (paired comparison — the same trick
//! the paper gets by replaying the same benchmark inputs against each
//! strategy).

use crate::sweep::Ablation;
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{run_closed_loop, run_cluster, ClusterSpec, RunConfig, RunResult};
use pronghorn_workloads::SpecWorkload;

/// The three policies of §5.1, in the paper's order.
pub const PAPER_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Cold,
    PolicyKind::AfterFirst,
    PolicyKind::RequestCentric,
];

/// The three eviction rates of §5.1.
pub const PAPER_RATES: [u32; 3] = [1, 4, 20];

/// One grid cell's identity and measurements.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Benchmark name.
    pub workload: String,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Eviction rate.
    pub rate: u32,
    /// Full run measurements.
    pub result: RunResult,
}

/// A completed grid of runs.
#[derive(Debug, Clone, Default)]
pub struct Grid {
    /// All cells, in task order: benchmark-major, then rate, then
    /// policy — independent of the thread count.
    pub cells: Vec<GridCell>,
}

impl Grid {
    /// Finds a cell.
    pub fn cell(&self, workload: &str, policy: PolicyKind, rate: u32) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.policy == policy && c.rate == rate)
    }

    /// Median latency of a cell, µs (NaN when absent).
    pub fn median(&self, workload: &str, policy: PolicyKind, rate: u32) -> f64 {
        self.cell(workload, policy, rate)
            .map(|c| c.result.median_us())
            .unwrap_or(f64::NAN)
    }

    /// Median improvement of the request-centric policy over the
    /// state-of-the-art baseline, percent (positive = faster).
    pub fn improvement_pct(&self, workload: &str, rate: u32) -> Option<f64> {
        let base = self.median(workload, PolicyKind::AfterFirst, rate);
        let rc = self.median(workload, PolicyKind::RequestCentric, rate);
        pronghorn_metrics::median_improvement_pct(base, rc)
    }

    /// Distinct workloads present, in first-seen order.
    pub fn workloads(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for cell in &self.cells {
            if !seen.contains(&cell.workload) {
                seen.push(cell.workload.clone());
            }
        }
        seen
    }
}

/// Runs the full grid for `benchmarks` across `policies` and `rates`.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_grid(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
) -> Grid {
    grid(ctx, benchmarks, policies, rates, |workload, cfg| {
        run_closed_loop(workload, &cfg)
    })
}

/// [`run_grid`], but every cell runs through the cluster
/// runner with the default single-node [`ClusterSpec`]. A 1-node cluster
/// is pinned byte-identical to [`run_closed_loop`] (the golden tests in
/// `tests/full_invariance.rs` hold both paths to the same committed CSV),
/// so this exists to check that equivalence at grid scale, not to be a
/// faster path.
///
/// # Panics
///
/// Panics if a benchmark name is unknown.
pub fn run_grid_cluster(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
) -> Grid {
    grid(ctx, benchmarks, policies, rates, |workload, cfg| {
        run_cluster(workload, &cfg.with_cluster(ClusterSpec::single_node())).result
    })
}

/// The grid as a sweep: policies are the arms, the eviction rate is the
/// axis, and the seed is shared across policies of one (bench, rate).
fn grid<F>(
    ctx: &ExperimentContext,
    benchmarks: &[&str],
    policies: &[PolicyKind],
    rates: &[u32],
    run: F,
) -> Grid
where
    F: Fn(&SpecWorkload, RunConfig) -> RunResult + Sync,
{
    let sweep = Ablation::run(
        ctx,
        benchmarks,
        rates,
        policies,
        |bench, rate| ctx.cell_seed(&[bench, &rate.to_string()]),
        |workload, rate, policy, seed| {
            run(
                workload,
                RunConfig::paper(policy, rate, seed).with_invocations(ctx.invocations),
            )
        },
    );
    Grid {
        cells: sweep
            .cells
            .into_iter()
            .map(|c| GridCell {
                workload: c.workload,
                policy: c.arm,
                rate: c.axis,
                result: c.result,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_all_cells_in_parallel() {
        let ctx = ExperimentContext {
            invocations: 60,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(
            &ctx,
            &["DFS", "Hash"],
            &[PolicyKind::Cold, PolicyKind::AfterFirst],
            &[1, 4],
        );
        assert_eq!(grid.cells.len(), 8);
        assert_eq!(grid.workloads().len(), 2);
        let m = grid.median("DFS", PolicyKind::Cold, 1);
        assert!(m.is_finite() && m > 0.0);
        assert!(grid.cell("DFS", PolicyKind::RequestCentric, 1).is_none());
    }

    #[test]
    fn paired_seeds_align_inputs_across_policies() {
        let ctx = ExperimentContext {
            invocations: 40,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(&ctx, &["DFS"], &PAPER_POLICIES, &[20]);
        // With eviction rate 20 and a cold policy vs after-1st, the
        // *input* stream is identical; latencies differ only through
        // runtime state. Sanity: same length, different values.
        let cold = &grid.cell("DFS", PolicyKind::Cold, 20).unwrap().result;
        let af = &grid.cell("DFS", PolicyKind::AfterFirst, 20).unwrap().result;
        assert_eq!(cold.latencies_us.len(), af.latencies_us.len());
        assert_ne!(cold.latencies_us, af.latencies_us);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let ctx = ExperimentContext::quick();
        let _ = run_grid(&ctx, &["NoSuch"], &PAPER_POLICIES, &[1]);
    }
}
