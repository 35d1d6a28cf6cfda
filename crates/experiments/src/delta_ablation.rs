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

use crate::grid::PAPER_RATES;
use crate::sweep::{fields_table, paper_benchmarks, Ablation, Cell, Columns, Field, Value};
use crate::ExperimentContext;
use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{run_closed_loop, RunConfig, RunResult};
use pronghorn_store::ChainStats;

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
        self.tally(|w| {
            let ratio = self.bytes_ratio(w, arm);
            ratio.is_finite().then_some(ratio >= factor)
        })
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

    /// Printed form: per-arm pooled stats, then the headline
    /// byte-reduction win counts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Delta-checkpointing ablation (request-centric policy)\n\n{}\n",
            fields_table(&self.arm_rows())
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

    /// `BENCH_delta.json`: per-arm upload totals and the headline
    /// byte-reduction win counts.
    pub fn bench_json(&self) -> String {
        self.bench_report("delta")
            .config("byte_win_threshold_x", "5.0")
            .render()
    }
}

impl Columns<RunResult> for DeltaArm {
    const AXIS: Option<&'static str> = Some("rate");
    const ARM: &'static str = "arm";

    fn arm_label(self) -> &'static str {
        self.label()
    }

    fn cell(_: &DeltaAblation, cell: &Cell<Self, RunResult>) -> Vec<Field> {
        let r = &cell.result;
        let uploads = upload_fields(
            r.checkpoint_ms.len(),
            r.overheads.nominal_bytes_uploaded,
            &r.chain,
        );
        uploads
            .into_iter()
            .chain([
                ("restore_bytes", Value::Uint(r.restore_bytes())),
                ("median_latency_us", Value::Float(r.median_us(), 3)),
                ("p99_latency_us", Value::Float(r.percentile_us(99.0), 3)),
            ])
            .collect()
    }

    fn pooled(ablation: &DeltaAblation, arm: Self, cells: &[&Cell<Self, RunResult>]) -> Vec<Field> {
        let mut chain = ChainStats::default();
        for c in cells {
            chain.merge(&c.result.chain);
        }
        let uploads = upload_fields(
            cells.iter().map(|c| c.result.checkpoint_ms.len()).sum(),
            cells
                .iter()
                .map(|c| c.result.overheads.nominal_bytes_uploaded)
                .sum(),
            &chain,
        );
        let (wins, total) = ablation.byte_wins(arm, 5.0);
        let regressions = ablation.latency_regressions(arm);
        uploads
            .into_iter()
            .chain([
                ("five_x_byte_wins", Value::Uint(wins as u64)),
                ("benchmarks", Value::Uint(total as u64)),
                ("latency_regressions", Value::Uint(regressions as u64)),
            ])
            .collect()
    }
}

/// The upload list shared by a cell and a pooled arm: checkpoints taken,
/// nominal bytes uploaded and the delta-chain counters.
fn upload_fields(checkpoints: usize, uploaded_bytes: u64, chain: &ChainStats) -> [Field; 7] {
    [
        ("checkpoints", Value::Uint(checkpoints as u64)),
        ("uploaded_bytes", Value::Uint(uploaded_bytes)),
        ("deltas", Value::Uint(chain.deltas)),
        ("roots", Value::Uint(chain.roots)),
        ("consolidations", Value::Uint(chain.consolidations)),
        ("max_depth", Value::Uint(u64::from(chain.max_depth))),
        ("composed_restores", Value::Uint(chain.composed_restores)),
    ]
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
