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

use crate::bench_report::{BenchReport, JsonObj};
use crate::grid::PAPER_RATES;
use crate::render::write_results_file;
use crate::sweep::{csv_f64, paper_benchmarks, Ablation};
use crate::ExperimentContext;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::{mean_and_std, Quantiles, Table, TableStyle};
use pronghorn_platform::{run_closed_loop, RestoreInfo, RestoreStrategy, RunConfig, RunResult};
use pronghorn_workloads::{by_name, Workload};

/// A completed restore ablation: benchmarks × eviction rates (the axis)
/// × [`RestoreStrategy::ALL`] (the arms).
pub type RestoreAblation = Ablation<RestoreStrategy, RunResult>;

/// Pooled per-strategy restore statistics (across every restore of every
/// cell run under that strategy).
#[derive(Debug, Clone)]
pub struct StrategyAggregate {
    /// The strategy.
    pub strategy: RestoreStrategy,
    /// Number of restores pooled.
    pub restores: usize,
    /// Median end-to-end restore time, µs (NaN with no restores).
    pub median_restore_us: f64,
    /// Mean and standard deviation of the restore times, µs.
    pub mean_restore_us: f64,
    /// Standard deviation companion to [`Self::mean_restore_us`].
    pub std_restore_us: f64,
    /// Total bytes moved from the store for restores.
    pub total_bytes: u64,
    /// Total demand faults served.
    pub faults: u64,
    /// Total pages brought in by batched prefetches.
    pub prefetched_pages: u64,
}

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
            .map(|c| c.result.median_restore_us())
            .unwrap_or(f64::NAN)
    }

    /// Pooled per-strategy aggregates, in [`RestoreStrategy::ALL`] order.
    pub fn strategy_aggregates(&self) -> Vec<StrategyAggregate> {
        RestoreStrategy::ALL
            .iter()
            .map(|&strategy| {
                let infos: Vec<&RestoreInfo> = self
                    .arm_cells(strategy)
                    .flat_map(|c| c.result.restore_infos.iter())
                    .collect();
                aggregate(strategy, &infos)
            })
            .collect()
    }

    /// How many benchmarks at `rate` satisfy the REAP claim: the
    /// record-&-prefetch median restore is strictly below lazy's and at or
    /// below eager's.
    pub fn wins_at_rate(&self, rate: u32) -> usize {
        self.workloads()
            .iter()
            .filter(|w| {
                let eager = self.median_restore_us(w, rate, RestoreStrategy::Eager);
                let lazy = self.median_restore_us(w, rate, RestoreStrategy::Lazy);
                let rp = self.median_restore_us(w, rate, RestoreStrategy::RecordPrefetch);
                rp.is_finite() && lazy.is_finite() && eager.is_finite() && rp < lazy && rp <= eager
            })
            .count()
    }

    /// Compute-bound benchmarks at `rate` where record-&-prefetch moved
    /// strictly fewer bytes than eager, as `(wins, total)`.
    pub fn byte_wins_at_rate(&self, rate: u32) -> (usize, usize) {
        let mut wins = 0;
        let mut total = 0;
        for w in self.workloads() {
            let Some(rp) = self.cell(&w, rate, RestoreStrategy::RecordPrefetch) else {
                continue;
            };
            if by_name(&w).is_some_and(|wl| wl.io_bound()) {
                continue;
            }
            let Some(eager) = self.cell(&w, rate, RestoreStrategy::Eager) else {
                continue;
            };
            total += 1;
            if rp.result.restore_bytes() < eager.result.restore_bytes() {
                wins += 1;
            }
        }
        (wins, total)
    }

    /// Paper-style rendering: per-strategy pooled stats, then per-rate
    /// benchmark win counts.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "Strategy",
            "Restores",
            "Median restore",
            "Mean ± std",
            "Bytes moved",
            "Faults",
            "Prefetched pages",
        ]);
        for agg in self.strategy_aggregates() {
            table.row(vec![
                agg.strategy.label().to_string(),
                agg.restores.to_string(),
                format_us(agg.median_restore_us),
                format!(
                    "{} ± {}",
                    format_us(agg.mean_restore_us),
                    format_us(agg.std_restore_us)
                ),
                format!("{:.1} MB", agg.total_bytes as f64 / 1e6),
                agg.faults.to_string(),
                agg.prefetched_pages.to_string(),
            ]);
        }
        let mut out = format!(
            "Restore-strategy ablation (request-centric policy)\n\n{}\n",
            table.render(TableStyle::Plain)
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

    /// CSV form: one row per cell, in fixed benchmark × rate × strategy
    /// order (byte-identical across same-seed reruns).
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "rate",
            "strategy",
            "restores",
            "median_restore_us",
            "restore_bytes",
            "faults",
            "prefetched_pages",
            "median_latency_us",
        ]);
        for w in self.workloads() {
            for rate in self.axes() {
                for strategy in RestoreStrategy::ALL {
                    let Some(cell) = self.cell(&w, rate, strategy) else {
                        continue;
                    };
                    table.row(vec![
                        w.clone(),
                        rate.to_string(),
                        strategy.label().to_string(),
                        cell.result.restore_infos.len().to_string(),
                        csv_f64(cell.result.median_restore_us()),
                        cell.result.restore_bytes().to_string(),
                        cell.result.total_faults().to_string(),
                        cell.result.prefetched_pages().to_string(),
                        csv_f64(cell.result.median_us()),
                    ]);
                }
            }
        }
        table.to_csv()
    }

    /// Writes `results/restore_ablation.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("restore_ablation.csv", &self.to_csv())
    }

    /// Writes `results/BENCH_restore.json`: per-strategy median restore
    /// time and bytes moved, in the shared [`BenchReport`] schema (one arm
    /// per strategy).
    pub fn save_bench_report(&self) -> std::io::Result<std::path::PathBuf> {
        let mut report = BenchReport::new("restore").config("policy", "\"request-centric\"");
        for agg in self.strategy_aggregates() {
            report.arm(
                JsonObj::new()
                    .str("strategy", agg.strategy.label())
                    .uint("restores", agg.restores as u64)
                    .float("median_restore_us", agg.median_restore_us, 3)
                    .float("mean_restore_us", agg.mean_restore_us, 3)
                    .float("std_restore_us", agg.std_restore_us, 3)
                    .uint("total_bytes", agg.total_bytes)
                    .uint("faults", agg.faults)
                    .uint("prefetched_pages", agg.prefetched_pages),
            );
        }
        report.save("BENCH_restore.json")
    }
}

/// Pools restore infos into one [`StrategyAggregate`].
pub fn aggregate(strategy: RestoreStrategy, infos: &[&RestoreInfo]) -> StrategyAggregate {
    let times: Vec<f64> = infos.iter().map(|i| i.total_restore_us()).collect();
    let (mean, std) = mean_and_std(&times).unwrap_or((f64::NAN, f64::NAN));
    StrategyAggregate {
        strategy,
        restores: infos.len(),
        median_restore_us: Quantiles::new(times)
            .map(|q| q.median())
            .unwrap_or(f64::NAN),
        mean_restore_us: mean,
        std_restore_us: std,
        total_bytes: infos.iter().map(|i| i.bytes_transferred).sum(),
        faults: infos.iter().map(|i| u64::from(i.faults)).sum(),
        prefetched_pages: infos.iter().map(|i| u64::from(i.prefetched_pages)).sum(),
    }
}

/// Formats a µs value for human tables; NaN renders as "-".
fn format_us(us: f64) -> String {
    if us.is_finite() {
        format!("{us:.0} µs")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let aggs = ablation.strategy_aggregates();
        assert_eq!(aggs.len(), 3);
        assert!(aggs.iter().all(|a| a.restores > 0));
        // Eager accrues no faults; lazy strategies accrue no full-image
        // transfers beyond their pages.
        assert_eq!(aggs[0].faults, 0);
        assert!(aggs[1].faults > 0);
        assert!(aggs[2].prefetched_pages > 0);
    }
}
