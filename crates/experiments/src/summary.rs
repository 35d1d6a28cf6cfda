//! §5.2's headline aggregation.
//!
//! The paper reports, per eviction rate, in how many of the 13 benchmarks
//! the request-centric policy's median beats / matches (±5%) / trails the
//! state of the art, and the geometric mean of the positive improvements:
//! 37.2% at rate 1 (9/13 better), 22.5% at rate 4, 13.5% at rate 20 —
//! 28 better / 9 on-par / 2 worse across the 39 cells.

use crate::grid::{Grid, PAPER_RATES};
use crate::restore_ablation::restore_fields;
use crate::sweep::{fields_table, Columns, Field, Rows, Value};
use pronghorn_metrics::{classify, geo_mean_of_improvements, Verdict};
use pronghorn_platform::{RestoreInfo, RestoreStrategy, RunResult};

/// Aggregate for one eviction rate.
#[derive(Debug, Clone)]
pub struct RateSummary {
    /// Eviction rate.
    pub rate: u32,
    /// Benchmarks where request-centric is better (>5% median gain).
    pub better: Vec<(String, f64)>,
    /// Benchmarks on-par (±5%).
    pub on_par: Vec<(String, f64)>,
    /// Benchmarks where it is worse.
    pub worse: Vec<(String, f64)>,
    /// Geometric mean of the positive improvements, percent.
    pub geo_mean_improvement_pct: Option<f64>,
}

/// The headline summary across rates.
#[derive(Debug, Clone)]
pub struct SummaryResult {
    /// One aggregate per eviction rate.
    pub rates: Vec<RateSummary>,
}

/// Summarizes one or more completed grids (typically Figure 4's plus
/// Figure 5's).
pub fn summarize(grids: &[&Grid]) -> SummaryResult {
    let rates = PAPER_RATES
        .iter()
        .map(|&rate| {
            let (mut better, mut on_par, mut worse) = (Vec::new(), Vec::new(), Vec::new());
            for grid in grids {
                for workload in grid.workloads() {
                    let Some(imp) = grid.improvement_pct(&workload, rate) else {
                        continue;
                    };
                    match classify(imp) {
                        Verdict::Better => better.push((workload, imp)),
                        Verdict::OnPar => on_par.push((workload, imp)),
                        Verdict::Worse => worse.push((workload, imp)),
                    }
                }
            }
            let improvements: Vec<f64> = better.iter().map(|(_, i)| *i).collect();
            RateSummary {
                rate,
                geo_mean_improvement_pct: geo_mean_of_improvements(&improvements),
                better,
                on_par,
                worse,
            }
        })
        .collect();
    SummaryResult { rates }
}

/// The printed restore-path section of `grids`: one row per restore
/// strategy present, over every restore of every cell (the policy grids
/// restore eagerly, so this is usually one row). Empty when no cell
/// restored. It is printed only — never written into `summary.csv`, whose
/// bytes are a compatibility surface; `BENCH_restore.json` is written by
/// the restore ablation alone.
pub fn restore_paths(grids: &[&Grid]) -> String {
    let rows: Vec<Vec<Field>> = RestoreStrategy::ALL
        .iter()
        .filter_map(|&strategy| {
            let infos: Vec<&RestoreInfo> = grids
                .iter()
                .flat_map(|g| g.cells.iter())
                .filter(|c| c.result.restore_strategy == strategy)
                .flat_map(|c| c.result.restore_infos.iter())
                .collect();
            if infos.is_empty() {
                return None;
            }
            let label = (
                <RestoreStrategy as Columns<RunResult>>::ARM,
                Value::Str(strategy.label()),
            );
            Some([label].into_iter().chain(restore_fields(&infos)).collect())
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    format!("\nrestore path:\n{}", fields_table(&rows))
}

impl SummaryResult {
    /// Total (better, on-par, worse) across all rates — the paper's
    /// "28 of 39 / 9 of 39 / 2 of 39".
    pub fn totals(&self) -> (usize, usize, usize) {
        self.rates.iter().fold((0, 0, 0), |(b, o, w), r| {
            (b + r.better.len(), o + r.on_par.len(), w + r.worse.len())
        })
    }
}

impl Rows for SummaryResult {
    /// Per-rate counts and geo-means, the totals, then the rows.
    fn render(&self) -> String {
        let mut out =
            String::from("Headline summary: request-centric vs checkpoint-after-1st medians\n\n");
        for r in &self.rates {
            let geo = r
                .geo_mean_improvement_pct
                .map_or_else(|| "-".into(), |g| format!("{g:.1}%"));
            out.push_str(&format!(
                "every {:>2} request(s): better {}, on-par (±5%) {}, worse {}; geo-mean improvement {geo}\n",
                r.rate,
                r.better.len(),
                r.on_par.len(),
                r.worse.len(),
            ));
        }
        let (b, o, w) = self.totals();
        out.push_str(&format!(
            "total: better {b}, on-par {o}, worse {w} of {} cells\n\n",
            b + o + w
        ));
        out + &fields_table(&self.rows())
    }

    /// One row per (rate, benchmark), better then on-par then worse
    /// within a rate. The `flag` column is the per-benchmark win/loss
    /// marker (`win`/`par`/`loss`) downstream tooling filters on without
    /// having to re-parse the ±5% verdict wording.
    fn rows(&self) -> Vec<Vec<Field>> {
        let mut rows = Vec::new();
        for r in &self.rates {
            for (list, verdict, flag) in [
                (&r.better, "better", "win"),
                (&r.on_par, "on-par", "par"),
                (&r.worse, "worse", "loss"),
            ] {
                for (name, imp) in list {
                    rows.push(vec![
                        ("rate", Value::Uint(u64::from(r.rate))),
                        ("workload", Value::Label(name.clone())),
                        ("improvement_pct", Value::Float(*imp, 2)),
                        ("verdict", Value::Str(verdict)),
                        ("flag", Value::Str(flag)),
                    ]);
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;
    use crate::grid::PAPER_POLICIES;
    use crate::ExperimentContext;

    #[test]
    fn summary_classifies_each_cell_once() {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(&ctx, &["DFS", "Uploader"], &PAPER_POLICIES, &PAPER_RATES);
        let summary = summarize(&[&grid]);
        let (b, o, w) = summary.totals();
        assert_eq!(b + o + w, 2 * 3);
        // DFS (compute) should improve at rate 1.
        let rate1 = &summary.rates[0];
        assert!(
            rate1.better.iter().any(|(n, _)| n == "DFS"),
            "rate-1 verdicts: {:?} / {:?} / {:?}",
            rate1.better,
            rate1.on_par,
            rate1.worse
        );
    }

    #[test]
    fn render_and_csv_are_consistent() {
        let ctx = ExperimentContext {
            invocations: 80,
            ..ExperimentContext::quick()
        };
        let grid = run_grid(&ctx, &["Hash"], &PAPER_POLICIES, &PAPER_RATES);
        let summary = summarize(&[&grid]);
        assert!(summary.render().contains("Headline summary"));
        // Restore-path stats surface in the printed section, never in the
        // CSV — summary.csv's bytes are a compatibility surface.
        let restore = restore_paths(&[&grid]);
        assert!(restore.starts_with("\nrestore path:\n"));
        assert_eq!(restore.matches("eager").count(), 1);
        // The one row, eager's, counts its restores in the second column.
        let restores = restore.lines().last().unwrap().split_whitespace().nth(1);
        assert!(restores.unwrap().parse::<u64>().unwrap() > 0, "{restore}");
        let csv = summary.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3);
        assert!(!csv.contains("eager"));
        // Every data row carries the win/par/loss flag in the last column.
        assert!(csv.starts_with("rate,workload,improvement_pct,verdict,flag"));
        for row in csv.lines().skip(1) {
            let flag = row.rsplit(',').next().unwrap();
            assert!(
                ["win", "par", "loss"].contains(&flag),
                "unflagged summary row: {row}"
            );
        }
    }
}
