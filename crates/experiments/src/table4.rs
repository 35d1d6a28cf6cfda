//! Table 4: convergence requests, checkpoint/restore times, snapshot sizes.
//!
//! Per benchmark, the paper reports (a) the requests Pronghorn takes to
//! find the optimal snapshot — the window-20/2% criterion applied to the
//! recorded latencies, averaged "across all tested combinations of input
//! size variances and eviction rates" — and (b) checkpoint/restore timings
//! and snapshot sizes from checkpointing each benchmark 10 times after
//! startup.

use crate::sweep::{fields_table, Field, Rows, Value};
use crate::ExperimentContext;
use pronghorn_checkpoint::{CodecStats, SimCriuEngine, SnapshotMeta};
use pronghorn_core::PolicyKind;
use pronghorn_jit::Runtime;
use pronghorn_metrics::Summary;
use pronghorn_platform::{run_closed_loop, RunConfig};
use pronghorn_sim::RngFactory;
use pronghorn_workloads::{evaluation_benchmarks, InputVariance, Workload};

/// One benchmark's Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub workload: String,
    /// Runtime label.
    pub runtime: String,
    /// Mean convergence request number across variance × rate combos.
    pub convergence_request: Option<f64>,
    /// Checkpoint time, ms (mean, std over 10 repetitions).
    pub checkpoint_ms: (f64, f64),
    /// Restore time, ms (mean, std).
    pub restore_ms: (f64, f64),
    /// Snapshot size, MB.
    pub snapshot_mb: f64,
}

/// Table 4's full result.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// One row per benchmark.
    pub rows: Vec<Table4Row>,
}

/// Measures checkpoint/restore costs: boot, serve a few requests, then
/// checkpoint+restore 10 times (the paper's methodology).
pub fn measure_engine_costs(workload: &dyn Workload, seed: u64) -> ((f64, f64), (f64, f64), f64) {
    let factory = RngFactory::new(seed);
    let engine = SimCriuEngine::new();
    let mut boot_rng = factory.stream("boot");
    let (mut runtime, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut boot_rng,
    );
    let mut exec_rng = factory.stream("exec");
    for i in 0..5u64 {
        let mut input_rng = factory.stream_indexed("input", i);
        let request = workload.generate(&mut input_rng, InputVariance::none());
        runtime.execute(&request, &mut exec_rng);
    }
    let mut engine_rng = factory.stream("engine");
    let mut ckpt = Summary::new();
    let mut rest = Summary::new();
    let mut size_mb = 0.0;
    let mut codec = CodecStats::default();
    for _ in 0..10 {
        let meta = SnapshotMeta {
            function: workload.name().to_string(),
            request_number: runtime.requests_executed() as u32,
            runtime: workload.kind().label().to_string(),
        };
        let (snapshot, _, ckpt_cost) =
            engine.checkpoint(&mut codec, &mut engine_rng, &runtime, meta, None);
        ckpt.record(ckpt_cost.as_millis_f64());
        size_mb = snapshot.nominal_size_mb();
        let (restored, rest_cost): (Runtime, _) = engine
            .restore(&mut engine_rng, &snapshot)
            .expect("self-produced snapshot restores");
        rest.record(rest_cost.as_millis_f64());
        runtime = restored;
    }
    (
        (ckpt.mean(), ckpt.sample_std()),
        (rest.mean(), rest.sample_std()),
        size_mb,
    )
}

/// Mean policy-convergence request across variance × eviction-rate combos.
pub fn measure_convergence(workload: &dyn Workload, ctx: &ExperimentContext) -> Option<f64> {
    let mut points = Vec::new();
    for variance in [InputVariance::none(), InputVariance::paper()] {
        for rate in [1u32, 4, 20] {
            let seed = ctx.cell_seed(&[
                "table4",
                workload.name(),
                &rate.to_string(),
                &format!("{:.2}", variance.sigma),
            ]);
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, rate, seed)
                .with_invocations(ctx.invocations)
                .with_variance(variance);
            let result = run_closed_loop(workload, &cfg);
            if let Some(c) = result.convergence_request() {
                points.push(c as f64);
            }
        }
    }
    (!points.is_empty()).then(|| points.iter().sum::<f64>() / points.len() as f64)
}

/// Runs Table 4 for all thirteen evaluation benchmarks.
pub fn run(ctx: &ExperimentContext) -> Table4Result {
    let rows = evaluation_benchmarks()
        .iter()
        .map(|b| {
            let (checkpoint_ms, restore_ms, snapshot_mb) =
                measure_engine_costs(b, ctx.cell_seed(&["table4-engine", b.name()]));
            Table4Row {
                workload: b.name().to_string(),
                runtime: b.kind().label().to_string(),
                convergence_request: measure_convergence(b, ctx),
                checkpoint_ms,
                restore_ms,
                snapshot_mb,
            }
        })
        .collect();
    Table4Result { rows }
}

impl Rows for Table4Result {
    /// One row per benchmark.
    fn rows(&self) -> Vec<Vec<Field>> {
        self.rows
            .iter()
            .map(|r| {
                let convergence = r.convergence_request.unwrap_or(f64::NAN);
                vec![
                    ("workload", Value::Label(r.workload.clone())),
                    ("runtime", Value::Label(r.runtime.clone())),
                    ("convergence_request", Value::Float(convergence, 1)),
                    ("checkpoint_ms_mean", Value::Float(r.checkpoint_ms.0, 2)),
                    ("checkpoint_ms_std", Value::Float(r.checkpoint_ms.1, 2)),
                    ("restore_ms_mean", Value::Float(r.restore_ms.0, 2)),
                    ("restore_ms_std", Value::Float(r.restore_ms.1, 2)),
                    ("snapshot_mb", Value::Float(r.snapshot_mb, 2)),
                ]
            })
            .collect()
    }

    /// Printed table.
    fn render(&self) -> String {
        format!(
            "Table 4: convergence requests and checkpoint/restore overheads\n\n{}",
            fields_table(&self.rows())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pronghorn_workloads::by_name;

    #[test]
    fn engine_costs_land_in_paper_bands() {
        // Paper: JVM snapshots ~10.5–13.3 MB, checkpoint 60–71 ms,
        // restore 50–56 ms; PyPy snapshots ~54–64 MB, checkpoint 74–105,
        // restore 30–81.
        let jvm = by_name("Hash").unwrap();
        let ((cm, _), (rm, _), mb) = measure_engine_costs(&jvm, 1);
        assert!((50.0..=85.0).contains(&cm), "jvm checkpoint {cm} ms");
        assert!((40.0..=70.0).contains(&rm), "jvm restore {rm} ms");
        assert!((9.0..=16.0).contains(&mb), "jvm snapshot {mb} MB");

        let pypy = by_name("BFS").unwrap();
        let ((cm, _), (rm, _), mb) = measure_engine_costs(&pypy, 1);
        assert!((65.0..=115.0).contains(&cm), "pypy checkpoint {cm} ms");
        assert!((55.0..=95.0).contains(&rm), "pypy restore {rm} ms");
        assert!((48.0..=70.0).contains(&mb), "pypy snapshot {mb} MB");
    }

    #[test]
    fn convergence_is_measurable_for_a_compute_benchmark() {
        let ctx = ExperimentContext {
            invocations: 200,
            ..ExperimentContext::quick()
        };
        let bench = by_name("DFS").unwrap();
        let c = measure_convergence(&bench, &ctx).expect("converges");
        assert!(c > 0.0 && c < 200.0, "convergence {c}");
    }

    #[test]
    fn render_has_thirteen_rows() {
        // Engine-only smoke of the render path (convergence is expensive,
        // covered above): build rows directly.
        let rows: Vec<Table4Row> = evaluation_benchmarks()
            .iter()
            .map(|b| {
                let (c, r, mb) = measure_engine_costs(b, 2);
                Table4Row {
                    workload: b.name().to_string(),
                    runtime: b.kind().label().to_string(),
                    convergence_request: Some(150.0),
                    checkpoint_ms: c,
                    restore_ms: r,
                    snapshot_mb: mb,
                }
            })
            .collect();
        let result = Table4Result { rows };
        let text = result.render();
        assert_eq!(text.lines().count(), 2 + 2 + 13);
        assert!(result.to_csv().contains("Uploader"));
    }
}
