//! The delta-checkpointing ablation: full snapshots vs page-delta chains.
//!
//! Sweeps the 13 paper benchmarks × the §5.1 eviction rates under the
//! request-centric policy, once per delta arm: full snapshots only, delta
//! chains consolidated at depth 4, and delta chains consolidated at depth
//! 16. Cells that differ only in arm share a seed, so the comparison is
//! paired exactly like the policy grid. The claim under test: a checkpoint
//! of a restored worker only needs to persist the pages its requests
//! dirtied, which cuts upload bytes several-fold — while the engine's
//! RNG-lockstep guarantee keeps client-visible latencies byte-identical
//! to the full-snapshot arm.

use crate::bench_report::{BenchReport, JsonObj};
use crate::grid::PAPER_RATES;
use crate::render::write_results_file;
use crate::sweep::{csv_f64, paper_benchmarks, Ablation};
use crate::ExperimentContext;
use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_metrics::{Table, TableStyle};
use pronghorn_platform::{run_closed_loop, RunConfig, RunResult};

/// One arm of the ablation: a delta policy under a stable label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaArm {
    /// Every checkpoint persists the full image (the pre-delta behavior).
    Full,
    /// Delta chains consolidated into a fresh full snapshot at depth 4.
    DeltaK4,
    /// Delta chains consolidated at depth 16 (longer chains, fewer
    /// consolidating full uploads, more links to compose on restore).
    DeltaK16,
}

impl DeltaArm {
    /// All arms, in sweep order.
    pub const ALL: [DeltaArm; 3] = [DeltaArm::Full, DeltaArm::DeltaK4, DeltaArm::DeltaK16];

    /// Stable CSV/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            DeltaArm::Full => "full",
            DeltaArm::DeltaK4 => "delta-k4",
            DeltaArm::DeltaK16 => "delta-k16",
        }
    }

    /// The [`DeltaPolicy`] this arm runs under.
    pub fn policy(&self) -> DeltaPolicy {
        match self {
            DeltaArm::Full => DeltaPolicy::Disabled,
            DeltaArm::DeltaK4 => DeltaPolicy::Enabled { max_depth: 4 },
            DeltaArm::DeltaK16 => DeltaPolicy::Enabled { max_depth: 16 },
        }
    }
}

/// A completed delta ablation: benchmarks × eviction rates (the axis) ×
/// [`DeltaArm::ALL`] (the arms).
pub type DeltaAblation = Ablation<DeltaArm, RunResult>;

/// Runs the full ablation: 13 benchmarks × paper rates × all arms.
pub fn run(ctx: &ExperimentContext) -> DeltaAblation {
    run_for(ctx, &paper_benchmarks(), &PAPER_RATES)
}

/// Runs the ablation over an explicit benchmark and rate set.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_for(ctx: &ExperimentContext, benchmarks: &[&str], rates: &[u32]) -> DeltaAblation {
    Ablation::run(
        ctx,
        benchmarks,
        rates,
        &DeltaArm::ALL,
        |bench, rate| ctx.cell_seed(&["delta", bench, &rate.to_string()]),
        |workload, rate, arm, seed| {
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, rate, seed)
                .with_invocations(ctx.invocations)
                .with_delta(arm.policy());
            run_closed_loop(workload, &cfg)
        },
    )
}

/// Pooled per-arm upload/chain accounting.
#[derive(Debug, Clone)]
pub struct ArmAggregate {
    /// The arm.
    pub arm: DeltaArm,
    /// Checkpoints taken across every cell of the arm.
    pub checkpoints: usize,
    /// Nominal bytes uploaded to the store across every cell.
    pub uploaded_bytes: u64,
    /// Delta frames persisted.
    pub deltas: u64,
    /// Full chain roots persisted (every checkpoint, for the full arm).
    pub roots: u64,
    /// Chain consolidations (deltas rebased into a fresh full root).
    pub consolidations: u64,
    /// Deepest chain observed in any cell.
    pub max_depth: u32,
    /// Restores that composed a multi-link chain.
    pub composed_restores: u64,
}

impl DeltaAblation {
    /// Nominal bytes a benchmark's checkpoints uploaded under `arm`,
    /// pooled across every rate present.
    pub fn uploaded_bytes(&self, workload: &str, arm: DeltaArm) -> u64 {
        self.arm_cells(arm)
            .filter(|c| c.workload == workload)
            .map(|c| c.result.overheads.nominal_bytes_uploaded)
            .sum()
    }

    /// How many times fewer bytes `arm` uploaded than the full arm for one
    /// benchmark (pooled across rates); NaN when the arm uploaded nothing.
    pub fn bytes_ratio(&self, workload: &str, arm: DeltaArm) -> f64 {
        let full = self.uploaded_bytes(workload, DeltaArm::Full);
        let delta = self.uploaded_bytes(workload, arm);
        if delta == 0 {
            return f64::NAN;
        }
        full as f64 / delta as f64
    }

    /// Benchmarks where `arm` uploaded at least `factor`× fewer bytes than
    /// the full arm, as `(wins, total)`.
    pub fn byte_wins(&self, arm: DeltaArm, factor: f64) -> (usize, usize) {
        let mut wins = 0;
        let mut total = 0;
        for w in self.workloads() {
            let ratio = self.bytes_ratio(&w, arm);
            if !ratio.is_finite() {
                continue;
            }
            total += 1;
            if ratio >= factor {
                wins += 1;
            }
        }
        (wins, total)
    }

    /// Cells where `arm`'s median end-to-end latency exceeds the paired
    /// full arm's. The engine's RNG-lockstep guarantee makes the paired
    /// latency streams byte-identical, so this must be zero — anything
    /// else is a determinism bug, not noise.
    pub fn latency_regressions(&self, arm: DeltaArm) -> usize {
        self.arm_cells(arm)
            .filter(|c| {
                self.cell(&c.workload, c.axis, DeltaArm::Full)
                    .is_some_and(|full| c.result.median_us() > full.result.median_us())
            })
            .count()
    }

    /// Pooled per-arm aggregates, in [`DeltaArm::ALL`] order.
    pub fn arm_aggregates(&self) -> Vec<ArmAggregate> {
        DeltaArm::ALL
            .iter()
            .map(|&arm| {
                let cells: Vec<_> = self.arm_cells(arm).collect();
                ArmAggregate {
                    arm,
                    checkpoints: cells.iter().map(|c| c.result.checkpoint_ms.len()).sum(),
                    uploaded_bytes: cells
                        .iter()
                        .map(|c| c.result.overheads.nominal_bytes_uploaded)
                        .sum(),
                    deltas: cells.iter().map(|c| c.result.chain.deltas).sum(),
                    roots: cells.iter().map(|c| c.result.chain.roots).sum(),
                    consolidations: cells.iter().map(|c| c.result.chain.consolidations).sum(),
                    max_depth: cells
                        .iter()
                        .map(|c| c.result.chain.max_depth)
                        .max()
                        .unwrap_or(0),
                    composed_restores: cells.iter().map(|c| c.result.chain.composed_restores).sum(),
                }
            })
            .collect()
    }

    /// Paper-style rendering: per-arm pooled stats, then the headline
    /// byte-reduction win counts.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "Arm",
            "Checkpoints",
            "Uploaded",
            "Deltas",
            "Roots",
            "Consolidations",
            "Max depth",
            "Composed restores",
        ]);
        for agg in self.arm_aggregates() {
            table.row(vec![
                agg.arm.label().to_string(),
                agg.checkpoints.to_string(),
                format!("{:.1} MB", agg.uploaded_bytes as f64 / 1e6),
                agg.deltas.to_string(),
                agg.roots.to_string(),
                agg.consolidations.to_string(),
                agg.max_depth.to_string(),
                agg.composed_restores.to_string(),
            ]);
        }
        let mut out = format!(
            "Delta-checkpointing ablation (request-centric policy)\n\n{}\n",
            table.render(TableStyle::Plain)
        );
        for arm in [DeltaArm::DeltaK4, DeltaArm::DeltaK16] {
            let (w5, total) = self.byte_wins(arm, 5.0);
            let (w2, _) = self.byte_wins(arm, 2.0);
            out.push_str(&format!(
                "{}: uploads >=5x fewer bytes than full on {w5}/{total} benchmarks \
                 (>=2x on {w2}); median-latency regressions: {}\n",
                arm.label(),
                self.latency_regressions(arm),
            ));
        }
        out
    }

    /// CSV form: one row per cell, in fixed benchmark × rate × arm order
    /// (byte-identical across same-seed reruns).
    pub fn to_csv(&self) -> String {
        let mut table = Table::new(vec![
            "workload",
            "rate",
            "arm",
            "checkpoints",
            "uploaded_bytes",
            "deltas",
            "roots",
            "consolidations",
            "max_depth",
            "composed_restores",
            "restore_bytes",
            "median_latency_us",
            "p99_latency_us",
        ]);
        for w in self.workloads() {
            for rate in self.axes() {
                for arm in DeltaArm::ALL {
                    let Some(cell) = self.cell(&w, rate, arm) else {
                        continue;
                    };
                    table.row(vec![
                        w.clone(),
                        rate.to_string(),
                        arm.label().to_string(),
                        cell.result.checkpoint_ms.len().to_string(),
                        cell.result.overheads.nominal_bytes_uploaded.to_string(),
                        cell.result.chain.deltas.to_string(),
                        cell.result.chain.roots.to_string(),
                        cell.result.chain.consolidations.to_string(),
                        cell.result.chain.max_depth.to_string(),
                        cell.result.chain.composed_restores.to_string(),
                        cell.result.restore_bytes().to_string(),
                        csv_f64(cell.result.median_us()),
                        csv_f64(cell.result.percentile_us(99.0)),
                    ]);
                }
            }
        }
        table.to_csv()
    }

    /// Writes `results/delta_ablation.csv`.
    pub fn save(&self) -> std::io::Result<std::path::PathBuf> {
        write_results_file("delta_ablation.csv", &self.to_csv())
    }

    /// Writes `results/BENCH_delta.json`: per-arm upload totals and the
    /// headline byte-reduction win counts, in the shared [`BenchReport`]
    /// schema.
    pub fn save_bench_report(&self) -> std::io::Result<std::path::PathBuf> {
        let mut report = BenchReport::new("delta").config("byte_win_threshold_x", "5.0");
        for agg in self.arm_aggregates() {
            let (wins, total) = self.byte_wins(agg.arm, 5.0);
            report.arm(
                JsonObj::new()
                    .str("arm", agg.arm.label())
                    .uint("checkpoints", agg.checkpoints as u64)
                    .uint("uploaded_bytes", agg.uploaded_bytes)
                    .uint("deltas", agg.deltas)
                    .uint("roots", agg.roots)
                    .uint("consolidations", agg.consolidations)
                    .uint("max_depth", u64::from(agg.max_depth))
                    .uint("composed_restores", agg.composed_restores)
                    .uint("five_x_byte_wins", wins as u64)
                    .uint("benchmarks", total as u64)
                    .uint(
                        "latency_regressions",
                        self.latency_regressions(agg.arm) as u64,
                    ),
            );
        }
        report.save("BENCH_delta.json")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ablation() -> DeltaAblation {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        run_for(&ctx, &["DFS", "Compression", "Hash"], &[1, 4])
    }

    #[test]
    fn ablation_runs_every_arm_per_cell() {
        let ablation = quick_ablation();
        assert_eq!(ablation.cells.len(), 3 * 2 * 3);
        assert_eq!(ablation.workloads(), vec!["DFS", "Compression", "Hash"]);
        assert_eq!(ablation.axes(), vec![1, 4]);
        for arm in DeltaArm::ALL {
            let cell = ablation.cell("DFS", 1, arm).unwrap();
            let deltas = cell.result.chain.deltas;
            match arm {
                DeltaArm::Full => assert_eq!(deltas, 0),
                _ => assert!(deltas > 0, "{} cut no deltas", arm.label()),
            }
        }
    }

    #[test]
    fn delta_arms_upload_several_fold_fewer_bytes() {
        let ablation = quick_ablation();
        for w in ablation.workloads() {
            let r4 = ablation.bytes_ratio(&w, DeltaArm::DeltaK4);
            let r16 = ablation.bytes_ratio(&w, DeltaArm::DeltaK16);
            assert!(r4 > 2.0, "{w}: k4 ratio {r4}");
            // Longer chains amortize the consolidating full uploads.
            assert!(r16 > r4, "{w}: k16 {r16} <= k4 {r4}");
        }
        // The PyPy benchmarks carry the headline >=5x claim — their
        // working set is a small fraction of the ~55 MB image. The JVM's
        // smaller image dirties proportionally more pages per request, so
        // Hash lands in the 2-5x band instead.
        for w in ["DFS", "Compression"] {
            let r16 = ablation.bytes_ratio(w, DeltaArm::DeltaK16);
            assert!(r16 >= 5.0, "{w}: k16 ratio {r16}");
        }
        let (wins, total) = ablation.byte_wins(DeltaArm::DeltaK16, 5.0);
        assert_eq!((wins, total), (2, 3));
        let (wins2, _) = ablation.byte_wins(DeltaArm::DeltaK16, 2.0);
        assert_eq!(wins2, 3);
    }

    #[test]
    fn delta_arms_never_shift_latencies() {
        let ablation = quick_ablation();
        for arm in [DeltaArm::DeltaK4, DeltaArm::DeltaK16] {
            assert_eq!(ablation.latency_regressions(arm), 0);
        }
        // Stronger than "no regression": the paired latency streams are
        // byte-identical (the engine's RNG-lockstep guarantee).
        for w in ablation.workloads() {
            for rate in ablation.axes() {
                let full = &ablation.cell(&w, rate, DeltaArm::Full).unwrap().result;
                for arm in [DeltaArm::DeltaK4, DeltaArm::DeltaK16] {
                    let delta = &ablation.cell(&w, rate, arm).unwrap().result;
                    assert_eq!(full.latencies_us, delta.latencies_us, "{w} rate {rate}");
                }
            }
        }
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let ablation = quick_ablation();
        let csv = ablation.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * 2 * 3);
        assert!(csv.starts_with("workload,rate,arm,"));
        // Same-seed rerun produces byte-identical CSV.
        let again = quick_ablation();
        assert_eq!(csv, again.to_csv());
    }
}
