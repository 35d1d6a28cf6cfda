//! The tiered-storage ablation: flat blob store vs SSD cache vs
//! compression vs composed-chain prefetch.
//!
//! Sweeps the 13 paper benchmarks × the §5.1 eviction rates under the
//! request-centric policy with delta chains at K=16 (the PR 4 baseline),
//! once per storage arm. Arms are cumulative: flat (storage subsystem
//! off — byte-identical to the baseline), +SSD cache, +compression, and
//! finally composed-chain prefetch under the record-prefetch restore
//! strategy. Cells that differ only in arm share a seed, so every
//! comparison is paired. The claims under test: the eager cache/compress
//! arms never move a client-visible latency (storage pricing is
//! off-critical-path accounting there), and the composed arm cuts both
//! the median restore critical path and total bytes transferred on most
//! benchmarks.

use crate::grid::PAPER_RATES;
use crate::sweep::{fields_table, paper_benchmarks, Ablation, Cell, Columns, Field, Value};
use crate::ExperimentContext;
use pronghorn_checkpoint::DeltaPolicy;
use pronghorn_core::PolicyKind;
use pronghorn_platform::{run_closed_loop, RestoreStrategy, RunConfig, RunResult, StoragePolicy};
use pronghorn_store::StorageStats;

/// Chain depth shared by every arm: the PR 4 delta baseline.
const DELTA_DEPTH: u32 = 16;

/// One arm of the ablation: a storage policy + restore strategy under a
/// stable label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageArm {
    /// Storage subsystem off — the delta-K16 eager baseline, byte-
    /// identical to a build without the tier.
    Flat,
    /// Local-SSD cache in front of the blob store (eager restores).
    Cache,
    /// SSD cache plus modeled page compression on the network link.
    CacheCompress,
    /// Everything on: cache, compression, and composed-chain prefetch
    /// under the record-prefetch restore strategy.
    Composed,
}

impl StorageArm {
    /// All arms, in sweep order.
    pub const ALL: [StorageArm; 4] = [
        StorageArm::Flat,
        StorageArm::Cache,
        StorageArm::CacheCompress,
        StorageArm::Composed,
    ];

    /// Stable CSV/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            StorageArm::Flat => "flat",
            StorageArm::Cache => "cache",
            StorageArm::CacheCompress => "cache-compress",
            StorageArm::Composed => "composed",
        }
    }

    /// The [`StoragePolicy`] this arm runs under.
    pub fn policy(&self) -> StoragePolicy {
        match self {
            StorageArm::Flat => StoragePolicy::disabled(),
            StorageArm::Cache => StoragePolicy::disabled().with_cache(),
            StorageArm::CacheCompress => StoragePolicy::disabled().with_cache().with_compression(),
            StorageArm::Composed => StoragePolicy::disabled()
                .with_cache()
                .with_compression()
                .with_composed_prefetch(),
        }
    }

    /// The restore strategy this arm runs under. Composed prefetch needs
    /// the working-set manifests that only record-prefetch restores
    /// record; the other arms keep the baseline's eager restores.
    pub fn restore(&self) -> RestoreStrategy {
        match self {
            StorageArm::Composed => RestoreStrategy::RecordPrefetch,
            _ => RestoreStrategy::Eager,
        }
    }
}

/// A completed storage ablation: benchmarks × eviction rates (the axis)
/// × [`StorageArm::ALL`] (the arms).
pub type StorageAblation = Ablation<StorageArm, RunResult>;

/// Runs the full ablation: 13 benchmarks × paper rates × all arms.
pub fn run(ctx: &ExperimentContext) -> StorageAblation {
    run_for(ctx, &paper_benchmarks(), &PAPER_RATES)
}

/// Runs the ablation over an explicit benchmark and rate set.
///
/// # Panics
///
/// Panics if a benchmark name is unknown — experiment tables are static
/// and must fail loudly.
pub fn run_for(ctx: &ExperimentContext, benchmarks: &[&str], rates: &[u32]) -> StorageAblation {
    Ablation::run(
        ctx,
        benchmarks,
        rates,
        &StorageArm::ALL,
        |bench, rate| ctx.cell_seed(&["storage", bench, &rate.to_string()]),
        |workload, rate, arm, seed| {
            let cfg = RunConfig::paper(PolicyKind::RequestCentric, rate, seed)
                .with_invocations(ctx.invocations)
                .with_delta(DeltaPolicy::Enabled {
                    max_depth: DELTA_DEPTH,
                })
                .with_restore(arm.restore())
                .with_storage(arm.policy());
            run_closed_loop(workload, &cfg)
        },
    )
}

impl StorageAblation {
    /// Total restore bytes a benchmark transferred under `arm`, pooled
    /// across every rate present.
    pub fn restore_bytes(&self, workload: &str, arm: StorageArm) -> u64 {
        self.arm_cells(arm)
            .filter(|c| c.workload == workload)
            .map(|c| c.result.restore_bytes())
            .sum()
    }

    /// Mean of the per-rate median restore critical-path times for one
    /// benchmark under `arm`; NaN when the arm restored nothing.
    pub fn mean_median_restore_us(&self, workload: &str, arm: StorageArm) -> f64 {
        mean_median_restore_us(self.arm_cells(arm).filter(|c| c.workload == workload))
    }

    /// Whether `arm` beats the flat baseline on BOTH the median restore
    /// critical path AND total restore bytes for one benchmark.
    pub fn restore_win(&self, workload: &str, arm: StorageArm) -> bool {
        let flat_us = self.mean_median_restore_us(workload, StorageArm::Flat);
        let arm_us = self.mean_median_restore_us(workload, arm);
        let flat_bytes = self.restore_bytes(workload, StorageArm::Flat);
        let arm_bytes = self.restore_bytes(workload, arm);
        arm_us.is_finite() && flat_us.is_finite() && arm_us < flat_us && arm_bytes < flat_bytes
    }

    /// Benchmarks where `arm` wins on both axes, as `(wins, total)`.
    pub fn restore_wins(&self, arm: StorageArm) -> (usize, usize) {
        self.tally(|w| Some(self.restore_win(w, arm)))
    }

    /// Cells where an eager storage arm's latency stream differs from the
    /// paired flat cell's. Storage pricing on the eager path is pure
    /// accounting, so this must be zero — anything else means the tier
    /// leaked onto the critical path.
    pub fn latency_divergences(&self, arm: StorageArm) -> usize {
        self.arm_cells(arm)
            .filter(|c| {
                self.cell(&c.workload, c.axis, StorageArm::Flat)
                    .is_some_and(|flat| c.result.latencies_us != flat.result.latencies_us)
            })
            .count()
    }

    /// Printed form: per-arm pooled stats, then the headline
    /// win counts.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Tiered-storage ablation (request-centric policy, delta K={DELTA_DEPTH})\n\n{}\n",
            fields_table(&self.arm_rows())
        );
        let (wins, total) = self.restore_wins(StorageArm::Composed);
        out.push_str(&format!(
            "composed: cuts median restore AND restore bytes vs flat on {wins}/{total} \
             benchmarks; eager-arm latency divergences: cache={}, cache-compress={}\n",
            self.latency_divergences(StorageArm::Cache),
            self.latency_divergences(StorageArm::CacheCompress),
        ));
        out
    }

    /// `BENCH_storage.json`: per-arm pooled storage counters and the
    /// headline both-axes win count.
    pub fn bench_json(&self) -> String {
        self.bench_report("storage")
            .config("delta_depth", DELTA_DEPTH.to_string())
            .render()
    }
}

impl Columns<RunResult> for StorageArm {
    const AXIS: Option<&'static str> = Some("rate");
    const ARM: &'static str = "arm";

    fn arm_label(self) -> &'static str {
        self.label()
    }

    fn cell(_: &StorageAblation, cell: &Cell<Self, RunResult>) -> Vec<Field> {
        let r = &cell.result;
        let head = [
            ("median_restore_us", Value::Float(r.median_restore_us(), 3)),
            ("restore_bytes", Value::Uint(r.restore_bytes())),
        ];
        let tail = ("median_latency_us", Value::Float(r.median_us(), 3));
        head.into_iter()
            .chain(tier_fields(&r.storage))
            .chain([tail])
            .collect()
    }

    fn pooled(
        ablation: &StorageAblation,
        arm: Self,
        cells: &[&Cell<Self, RunResult>],
    ) -> Vec<Field> {
        let mut storage = StorageStats::default();
        for c in cells {
            storage.merge(&c.result.storage);
        }
        let restore_bytes = cells.iter().map(|c| c.result.restore_bytes()).sum();
        let mean_median = mean_median_restore_us(cells.iter().copied());
        let head = [
            ("restore_bytes", Value::Uint(restore_bytes)),
            ("mean_median_restore_us", Value::Float(mean_median, 3)),
        ];
        let (wins, total) = ablation.restore_wins(arm);
        let mut fields: Vec<Field> = head
            .into_iter()
            .chain(tier_fields(&storage))
            .chain([
                ("restore_wins", Value::Uint(wins as u64)),
                ("benchmarks", Value::Uint(total as u64)),
            ])
            .collect();
        // Only with eager restores is storage pricing pure accounting;
        // the composed arm's record-prefetch restores move latencies on
        // purpose, so a divergence count would claim nothing there.
        if arm.restore() == RestoreStrategy::Eager {
            let divergences = ablation.latency_divergences(arm);
            fields.push(("latency_divergences", Value::Uint(divergences as u64)));
        }
        fields
    }
}

/// Mean of the cells' median restore critical-path times, skipping cells
/// that never restored; NaN when none did.
fn mean_median_restore_us<'a>(cells: impl Iterator<Item = &'a Cell<StorageArm, RunResult>>) -> f64 {
    let medians: Vec<f64> = cells
        .map(|c| c.result.median_restore_us())
        .filter(|m| m.is_finite())
        .collect();
    if medians.is_empty() {
        return f64::NAN;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// The storage-tier list shared by a cell and a pooled arm.
fn tier_fields(s: &StorageStats) -> [Field; 8] {
    [
        ("cache_hits", Value::Uint(s.cache_hits)),
        ("cache_misses", Value::Uint(s.cache_misses)),
        ("cache_hit_bytes", Value::Uint(s.cache_hit_bytes)),
        ("cache_evictions", Value::Uint(s.cache_evictions)),
        (
            "wire_bytes_downloaded",
            Value::Uint(s.wire_bytes_downloaded),
        ),
        ("wire_bytes_uploaded", Value::Uint(s.wire_bytes_uploaded)),
        ("composed_prefetches", Value::Uint(s.composed_prefetches)),
        ("composed_bytes_saved", Value::Uint(s.composed_bytes_saved)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::lookup;

    fn quick_ablation() -> StorageAblation {
        let ctx = ExperimentContext {
            invocations: 120,
            ..ExperimentContext::quick()
        };
        run_for(&ctx, &["DFS", "Compression", "Hash"], &[1, 4])
    }

    #[test]
    fn ablation_runs_every_arm_per_cell() {
        let ablation = quick_ablation();
        assert_eq!(ablation.cells.len(), 3 * 2 * 4);
        assert_eq!(ablation.workloads(), vec!["DFS", "Compression", "Hash"]);
        assert_eq!(ablation.axes(), vec![1, 4]);
        // The flat arm never constructs a tier: its counters stay zero.
        for w in ablation.workloads() {
            for rate in ablation.axes() {
                let flat = &ablation.cell(&w, rate, StorageArm::Flat).unwrap().result;
                assert_eq!(flat.storage, StorageStats::default(), "{w} rate {rate}");
            }
        }
        // The cache arms actually exercise the tier.
        let cache = &ablation.cell("DFS", 1, StorageArm::Cache).unwrap().result;
        assert!(cache.storage.cache_hits > 0, "cache arm never hit SSD");
        let compress = &ablation
            .cell("DFS", 1, StorageArm::CacheCompress)
            .unwrap()
            .result;
        assert!(
            compress.storage.wire_bytes_downloaded < compress.overheads.nominal_bytes_downloaded
                || compress.storage.wire_bytes_downloaded == 0,
            "compression never shrank the wire"
        );
    }

    #[test]
    fn eager_storage_arms_never_shift_latencies() {
        let ablation = quick_ablation();
        for arm in [StorageArm::Cache, StorageArm::CacheCompress] {
            assert_eq!(
                ablation.latency_divergences(arm),
                0,
                "{} leaked onto the critical path",
                arm.label()
            );
        }
        // Arm rows in `StorageArm::ALL` order: only the eager arms report
        // divergences.
        let reported: Vec<bool> = ablation
            .arm_rows()
            .iter()
            .map(|row| lookup(row, "latency_divergences").is_some())
            .collect();
        assert_eq!(reported, [true, true, true, false]);
        // Nominal byte accounting is storage-invariant on the eager arms:
        // compression changes wire bytes and transfer time only.
        for w in ablation.workloads() {
            for rate in ablation.axes() {
                let flat = &ablation.cell(&w, rate, StorageArm::Flat).unwrap().result;
                for arm in [StorageArm::Cache, StorageArm::CacheCompress] {
                    let cell = &ablation.cell(&w, rate, arm).unwrap().result;
                    assert_eq!(
                        cell.overheads.nominal_bytes_downloaded,
                        flat.overheads.nominal_bytes_downloaded,
                        "{w} rate {rate} {}",
                        arm.label()
                    );
                    assert_eq!(cell.restore_bytes(), flat.restore_bytes());
                }
            }
        }
    }

    #[test]
    fn composed_arm_cuts_restore_time_and_bytes() {
        let ablation = quick_ablation();
        for w in ablation.workloads() {
            assert!(
                ablation.restore_win(&w, StorageArm::Composed),
                "{w}: composed arm should beat flat on both axes \
                 (restore {:.0}us vs {:.0}us, bytes {} vs {})",
                ablation.mean_median_restore_us(&w, StorageArm::Composed),
                ablation.mean_median_restore_us(&w, StorageArm::Flat),
                ablation.restore_bytes(&w, StorageArm::Composed),
                ablation.restore_bytes(&w, StorageArm::Flat),
            );
        }
    }

    #[test]
    fn csv_is_deterministic_and_shaped() {
        let ablation = quick_ablation();
        let csv = ablation.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * 2 * 4);
        assert!(csv.starts_with("workload,rate,arm,"));
        // Same-seed rerun produces byte-identical CSV.
        let again = quick_ablation();
        assert_eq!(csv, again.to_csv());
    }
}
