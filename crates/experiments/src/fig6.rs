//! Figure 6: trace-driven evaluation at Azure popularity percentiles.
//!
//! The paper replays 15-minute production traces of functions at the 50th,
//! 65th and 75th popularity percentiles against two compute-bound
//! workloads (MST, HTMLRendering) and one IO-bound workload (Thumbnailer),
//! finding Pronghorn superior in 6/9 scenarios, on-par in 2, and worse in
//! one pathological case: MST at the 50th percentile, whose trace carried
//! only 3 requests.

use crate::render::write_results_file;
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::Table;
use pronghorn_platform::{ArrivalSpec, RunConfig, RunResult, TopologySpec};
use pronghorn_sim::RngFactory;
use pronghorn_traces::TraceSpec;
use pronghorn_workloads::{by_name, InputVariance};

/// Figure 6's benchmark rows.
pub const FIG6_BENCHMARKS: [&str; 3] = ["MST", "Thumbnailer", "HTMLRendering"];

/// Figure 6's popularity percentiles (columns).
pub const FIG6_PERCENTILES: [f64; 3] = [0.50, 0.65, 0.75];

/// One trace-driven cell.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Benchmark name.
    pub workload: String,
    /// Popularity percentile.
    pub percentile: f64,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Requests the trace carried.
    pub trace_len: usize,
    /// The run.
    pub result: RunResult,
}

/// Figure 6's full result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// All cells.
    pub cells: Vec<TraceCell>,
}

/// Prior production invocations replayed before the measured window: the
/// function is already deployed when the trace starts, but the policy is
/// still mid-exploration (the 50th-percentile MST case stays pathological,
/// as in the paper).
pub const DEPLOYMENT_HISTORY: u32 = 60;

/// Runs Figure 6. Each (benchmark, percentile) pair gets one synthetic
/// trace shared across the three policies (paired comparison), replayed
/// against an already-deployed function.
pub fn run(ctx: &ExperimentContext) -> Fig6Result {
    let mut cells = Vec::new();
    for &bench in &FIG6_BENCHMARKS {
        for &percentile in &FIG6_PERCENTILES {
            let trace_seed = ctx.cell_seed(&["fig6", bench, &format!("{percentile}")]);
            let factory = RngFactory::new(trace_seed);
            let trace = TraceSpec::percentile(percentile).generate(&mut factory.stream("trace"));
            let workload = by_name(bench).expect("figure benchmark exists");
            for policy in [
                PolicyKind::Cold,
                PolicyKind::AfterFirst,
                PolicyKind::RequestCentric,
            ] {
                let cfg = RunConfig::paper(policy, 4, trace_seed)
                    .with_variance(InputVariance::low())
                    .with_invocations(DEPLOYMENT_HISTORY);
                let plan = ArrivalSpec::Trace(&trace);
                let result = pronghorn_platform::run(&workload, &cfg, plan, TopologySpec::Single)
                    .expect("figure configs are valid");
                cells.push(TraceCell {
                    workload: bench.to_string(),
                    percentile,
                    policy,
                    trace_len: trace.len(),
                    result,
                });
            }
        }
    }
    Fig6Result { cells }
}

impl Fig6Result {
    /// Finds a cell.
    pub fn cell(&self, workload: &str, percentile: f64, policy: PolicyKind) -> Option<&TraceCell> {
        self.cells.iter().find(|c| {
            c.workload == workload && (c.percentile - percentile).abs() < 1e-9 && c.policy == policy
        })
    }

    /// Median improvement of request-centric over after-1st for a panel.
    pub fn improvement_pct(&self, workload: &str, percentile: f64) -> Option<f64> {
        let base = self.cell(workload, percentile, PolicyKind::AfterFirst)?;
        let rc = self.cell(workload, percentile, PolicyKind::RequestCentric)?;
        pronghorn_metrics::median_improvement_pct(base.result.median_us(), rc.result.median_us())
    }

    /// Counts panels where request-centric is better / on-par / worse
    /// (±5% band, §5.2's convention).
    pub fn verdict_counts(&self) -> (usize, usize, usize) {
        let (mut better, mut par, mut worse) = (0, 0, 0);
        for &bench in &FIG6_BENCHMARKS {
            for &p in &FIG6_PERCENTILES {
                if let Some(imp) = self.improvement_pct(bench, p) {
                    match pronghorn_metrics::classify(imp) {
                        pronghorn_metrics::Verdict::Better => better += 1,
                        pronghorn_metrics::Verdict::OnPar => par += 1,
                        pronghorn_metrics::Verdict::Worse => worse += 1,
                    }
                }
            }
        }
        (better, par, worse)
    }

    /// Paper-style rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "percentile",
            "trace reqs",
            "cold median µs",
            "after-1st median µs",
            "request-centric median µs",
            "improvement",
        ]);
        for &bench in &FIG6_BENCHMARKS {
            for &p in &FIG6_PERCENTILES {
                let m = |policy| {
                    self.cell(bench, p, policy)
                        .map(|c| format!("{:.0}", c.result.median_us()))
                        .unwrap_or_else(|| "-".into())
                };
                let len = self
                    .cell(bench, p, PolicyKind::Cold)
                    .map(|c| c.trace_len.to_string())
                    .unwrap_or_default();
                let imp = self
                    .improvement_pct(bench, p)
                    .map(|i| format!("{i:+.1}%"))
                    .unwrap_or_else(|| "-".into());
                table.row(vec![
                    bench.to_string(),
                    format!("{:.0}th", p * 100.0),
                    len,
                    m(PolicyKind::Cold),
                    m(PolicyKind::AfterFirst),
                    m(PolicyKind::RequestCentric),
                    imp,
                ]);
            }
        }
        let (b, o, w) = self.verdict_counts();
        format!(
            "Figure 6: Azure-like trace replay (15-minute windows)\n\n{}\nrequest-centric: better in {b}/9, on-par in {o}/9, worse in {w}/9 scenarios\n",
            table.render(pronghorn_metrics::TableStyle::Plain)
        )
    }

    /// CSV form.
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "percentile",
            "policy",
            "trace_len",
            "median_us",
            "p90_us",
        ]);
        for c in &self.cells {
            table.row(vec![
                c.workload.clone(),
                format!("{:.2}", c.percentile),
                c.policy.label().to_string(),
                c.trace_len.to_string(),
                format!("{:.1}", c.result.median_us()),
                format!("{:.1}", c.result.percentile_us(90.0)),
            ]);
        }
        table.to_csv()
    }

    /// Writes `results/fig6.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("fig6.csv", &self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_nine_panels_with_three_policies() {
        let result = run(&ExperimentContext::quick());
        assert_eq!(result.cells.len(), 27);
        // Trace length is shared across policies of a panel.
        for &bench in &FIG6_BENCHMARKS {
            for &p in &FIG6_PERCENTILES {
                let lens: Vec<usize> = [
                    PolicyKind::Cold,
                    PolicyKind::AfterFirst,
                    PolicyKind::RequestCentric,
                ]
                .iter()
                .filter_map(|&k| result.cell(bench, p, k))
                .map(|c| c.trace_len)
                .collect();
                assert_eq!(lens.len(), 3);
                assert!(lens.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn median_percentile_traces_are_sparse() {
        let result = run(&ExperimentContext::quick());
        let p50 = result.cell("MST", 0.50, PolicyKind::Cold).unwrap();
        let p75 = result.cell("MST", 0.75, PolicyKind::Cold).unwrap();
        assert!(
            p50.trace_len < p75.trace_len,
            "p50 {} vs p75 {}",
            p50.trace_len,
            p75.trace_len
        );
    }

    #[test]
    fn render_mentions_every_panel() {
        let result = run(&ExperimentContext::quick());
        let text = result.render();
        for needle in ["MST", "Thumbnailer", "HTMLRendering", "50th", "75th"] {
            assert!(text.contains(needle));
        }
    }
}
