//! The restore-strategy ablation: eager vs lazy vs record-&-prefetch.
//!
//! Sweeps the 13 paper benchmarks × the §5.1 eviction rates under the
//! request-centric policy, once per [`RestoreStrategy`]. Cells that differ
//! only in strategy share a seed, so the workload-input stream — and hence
//! the comparison — is paired, exactly like the policy grid. The REAP
//! claim under test: after one recording restore, bulk-prefetching the
//! recorded working set restores faster than both demand paging (fault
//! service dominates) and eager restoration (the full image transfer
//! dominates), while moving fewer bytes than eager on compute-bound
//! benchmarks whose working set is a fraction of the image.

use crate::grid::PAPER_RATES;
use crate::sweep::{fields_table, paper_benchmarks, Ablation, Cell, Columns, Field, Value};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::{mean_and_std, Quantiles};
use pronghorn_platform::{run_closed_loop, RestoreInfo, RestoreStrategy, RunConfig, RunResult};
use pronghorn_workloads::{by_name, Workload};

/// A completed restore ablation: benchmarks × eviction rates (the axis)
/// × [`RestoreStrategy::ALL`] (the arms).
pub type RestoreAblation = Ablation<RestoreStrategy, RunResult>;

/// Runs the full ablation: 13 benchmarks × paper rates × all strategies.
pub fn run(ctx: &ExperimentContext) -> RestoreAblation {
    run_for(ctx, &paper_benchmarks(), &PAPER_RATES)
}

/// Runs the ablation over an explicit benchmark and rate set.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_for(ctx: &ExperimentContext, benchmarks: &[&str], rates: &[u32]) -> RestoreAblation {
    Ablation::run(
        ctx,
        benchmarks,
        rates,
        &RestoreStrategy::ALL,
        |bench, rate| ctx.cell_seed(&["restore", bench, &rate.to_string()]),
        |workload, rate, strategy, seed| {
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, rate, seed)
                .with_invocations(ctx.invocations)
                .with_restore(strategy);
            run_closed_loop(workload, &cfg)
        },
    )
}

impl RestoreAblation {
    /// Median end-to-end restore time of a cell, µs (NaN when absent or
    /// the cell never restored).
    pub fn median_restore_us(&self, workload: &str, rate: u32, strategy: RestoreStrategy) -> f64 {
        self.cell(workload, rate, strategy)
            .map_or(f64::NAN, |c| c.result.median_restore_us())
    }

    /// How many benchmarks at `rate` satisfy the REAP claim: the
    /// record-&-prefetch median restore is strictly below lazy's and at or
    /// below eager's.
    pub fn wins_at_rate(&self, rate: u32) -> usize {
        let wins = self.tally(|w| {
            let eager = self.median_restore_us(w, rate, RestoreStrategy::Eager);
            let lazy = self.median_restore_us(w, rate, RestoreStrategy::Lazy);
            let rp = self.median_restore_us(w, rate, RestoreStrategy::RecordPrefetch);
            Some(
                rp.is_finite() && lazy.is_finite() && eager.is_finite() && rp < lazy && rp <= eager,
            )
        });
        wins.0
    }

    /// Compute-bound benchmarks at `rate` where record-&-prefetch moved
    /// strictly fewer bytes than eager, as `(wins, total)`.
    pub fn byte_wins_at_rate(&self, rate: u32) -> (usize, usize) {
        self.tally(|w| {
            let rp = self.cell(w, rate, RestoreStrategy::RecordPrefetch)?;
            if by_name(w).is_some_and(|wl| wl.io_bound()) {
                return None;
            }
            let eager = self.cell(w, rate, RestoreStrategy::Eager)?;
            Some(rp.result.restore_bytes() < eager.result.restore_bytes())
        })
    }

    /// Printed form: per-strategy pooled stats, then per-rate
    /// benchmark win counts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Restore-strategy ablation (request-centric policy)\n\n{}\n",
            fields_table(&self.arm_rows())
        );
        let n = self.workloads().len();
        for rate in self.axes() {
            let (bw, bt) = self.byte_wins_at_rate(rate);
            out.push_str(&format!(
                "rate {:>2}: record-prefetch beats lazy and eager restore latency on \
                 {}/{} benchmarks; moves fewer bytes than eager on {bw}/{bt} compute-bound\n",
                rate,
                self.wins_at_rate(rate),
                n,
            ));
        }
        out
    }

    /// `BENCH_restore.json`: per-strategy restore times and bytes moved,
    /// one arm per strategy.
    pub fn bench_json(&self) -> String {
        self.bench_report("restore")
            .config("policy", "\"request-centric\"")
            .render()
    }
}

impl Columns<RunResult> for RestoreStrategy {
    const AXIS: Option<&'static str> = Some("rate");
    const ARM: &'static str = "strategy";

    fn arm_label(self) -> &'static str {
        self.label()
    }

    fn cell(_: &RestoreAblation, cell: &Cell<Self, RunResult>) -> Vec<Field> {
        let r = &cell.result;
        vec![
            ("restores", Value::Uint(r.restore_infos.len() as u64)),
            ("median_restore_us", Value::Float(r.median_restore_us(), 3)),
            ("restore_bytes", Value::Uint(r.restore_bytes())),
            ("faults", Value::Uint(r.total_faults())),
            ("prefetched_pages", Value::Uint(r.prefetched_pages())),
            ("median_latency_us", Value::Float(r.median_us(), 3)),
        ]
    }

    /// Pooled over every restore of every cell run under the strategy.
    fn pooled(_: &RestoreAblation, _: Self, cells: &[&Cell<Self, RunResult>]) -> Vec<Field> {
        let infos: Vec<&RestoreInfo> = cells.iter().flat_map(|c| &c.result.restore_infos).collect();
        restore_fields(&infos)
    }
}

/// The restore-path list over pooled restores: count, restore-time
/// median, mean and standard deviation, bytes moved, faults, prefetched
/// pages.
pub fn restore_fields(infos: &[&RestoreInfo]) -> Vec<Field> {
    let sum = |count: fn(&RestoreInfo) -> u64| Value::Uint(infos.iter().map(|i| count(i)).sum());
    let times: Vec<f64> = infos.iter().map(|i| i.total_restore_us()).collect();
    let (mean, std) = mean_and_std(&times).unwrap_or((f64::NAN, f64::NAN));
    let median = Quantiles::new(times).map_or(f64::NAN, |q| q.median());
    vec![
        ("restores", Value::Uint(infos.len() as u64)),
        ("median_restore_us", Value::Float(median, 3)),
        ("mean_restore_us", Value::Float(mean, 3)),
        ("std_restore_us", Value::Float(std, 3)),
        ("total_bytes", sum(|i| i.bytes_transferred)),
        ("faults", sum(|i| u64::from(i.faults))),
        ("prefetched_pages", sum(|i| u64::from(i.prefetched_pages))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::uint;

    fn quick_ablation() -> RestoreAblation {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        run_for(&ctx, &["DFS", "Uploader", "Hash"], &[4])
    }

    #[test]
    fn ablation_runs_every_strategy_per_cell() {
        let ablation = quick_ablation();
        assert_eq!(ablation.cells.len(), 3 * 3);
        assert_eq!(ablation.workloads(), vec!["DFS", "Uploader", "Hash"]);
        assert_eq!(ablation.axes(), vec![4]);
        for strategy in RestoreStrategy::ALL {
            let cell = ablation.cell("DFS", 4, strategy).unwrap();
            assert_eq!(cell.result.restore_strategy, strategy);
            assert!(!cell.result.restore_infos.is_empty());
        }
    }

    #[test]
    fn record_prefetch_wins_on_quick_subset() {
        let ablation = quick_ablation();
        // All three benchmarks: RP < Lazy strictly, RP <= Eager.
        assert_eq!(ablation.wins_at_rate(4), 3, "{}", ablation.render());
        // DFS and Hash are compute-bound; Uploader is IO-bound and
        // excluded from the bytes comparison.
        assert_eq!(ablation.byte_wins_at_rate(4), (2, 2));
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let ablation = quick_ablation();
        let csv = ablation.to_csv();
        assert_eq!(csv.lines().count(), 1 + 9);
        assert!(csv.starts_with("workload,rate,strategy,"));
        // Same-seed rerun produces byte-identical CSV.
        let again = quick_ablation();
        assert_eq!(csv, again.to_csv());
    }

    #[test]
    fn render_and_report_cover_all_strategies() {
        let ablation = quick_ablation();
        let text = ablation.render();
        for strategy in RestoreStrategy::ALL {
            assert!(text.contains(strategy.label()), "{text}");
        }
        let arms = ablation.arm_rows();
        assert_eq!(arms.len(), 3);
        assert!(arms.iter().all(|a| uint(a, "restores") > 0));
        // Eager accrues no faults; lazy strategies accrue no full-image
        // transfers beyond their pages.
        assert_eq!(uint(&arms[0], "faults"), 0);
        assert!(uint(&arms[1], "faults") > 0);
        assert!(uint(&arms[2], "prefetched_pages") > 0);
    }
}
