//! The shared `BENCH_*.json` schema plus `BENCH_grid.json` — the
//! machine-readable performance report the `summary` command writes next
//! to `summary.csv`.
//!
//! Every benchmark report in `results/` (`BENCH_grid.json`,
//! `BENCH_restore.json`, `BENCH_delta.json`, `BENCH_cluster.json`,
//! `BENCH_provision.json`, `BENCH_storage.json`) is
//! rendered through [`BenchReport`], so they all share one header:
//!
//! ```json
//! {
//!   "report": "pronghorn-<name>",
//!   "schema_version": 3,
//!   "config": { ... },
//!   "arms": [ {...}, {...} ],
//!   ...report-specific trailing sections...
//! }
//! ```
//!
//! `config` records the knobs the run was taken under; `arms` is the
//! per-variant comparison the report exists to make. Individual arm
//! objects are built with [`JsonObj`], which renders NaN as `null` so a
//! cell that never exercised a path stays machine-readable.
//!
//! No report carries host time, so a rerun with the same seed rewrites
//! every `BENCH_*.json` byte for byte; wall-clock belongs to the
//! benchmark package.
//!
//! This module also owns the grid report proper: the [`CodecStats`]
//! merged across every cell — encodes performed vs skipped by dirty
//! tracking, bytes encoded vs avoided, allocations saved by scratch
//! reuse. Codec throughput is measured by the `codec_throughput`
//! criterion bench, not here.

use crate::grid::Grid;
use crate::render::write_results_file;
use pronghorn_checkpoint::CodecStats;
use std::fmt::Write as _;

/// Version stamped into every `BENCH_*.json` header. Bump when the
/// shared header shape (not a report's arm fields) changes.
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// A single-line JSON object builder for arm entries and config values.
///
/// Keys and string values are trusted (static labels) and are not
/// escaped. Floats render at a caller-chosen precision, with NaN and
/// infinities as `null` — the JSON-safe spelling of "this cell never
/// exercised the path".
#[derive(Debug, Clone, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, raw: String) -> Self {
        self.fields.push((key.to_string(), raw));
        self
    }

    /// A quoted string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.push(key, format!("\"{value}\""))
    }

    /// An unsigned integer field.
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.push(key, value.to_string())
    }

    /// A boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value.to_string())
    }

    /// A float field at `precision` decimal places; non-finite values
    /// render as `null`.
    pub fn float(self, key: &str, value: f64, precision: usize) -> Self {
        let raw = if value.is_finite() {
            format!("{value:.precision$}")
        } else {
            "null".to_string()
        };
        self.push(key, raw)
    }

    /// A pre-rendered JSON value (nested array or object).
    pub fn raw(self, key: &str, value: String) -> Self {
        self.push(key, value)
    }

    /// Renders the object on one line: `{"a": 1, "b": "x"}`.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Builder for the shared `BENCH_*.json` document described in the
/// module docs: common header, `config` map, `arms` array, then any
/// report-specific trailing sections.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: &'static str,
    config: Vec<(String, String)>,
    arms: Vec<String>,
    sections: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report; `name` lands in the header as
    /// `"report": "pronghorn-<name>"`.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            config: Vec::new(),
            arms: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Adds one `config` entry; `raw` is a pre-rendered JSON value.
    pub fn config(mut self, key: &str, raw: impl Into<String>) -> Self {
        self.config.push((key.to_string(), raw.into()));
        self
    }

    /// Appends one arm to the `arms` array.
    pub fn arm(&mut self, arm: JsonObj) -> &mut Self {
        self.arms.push(arm.render());
        self
    }

    /// Appends a report-specific section after `arms`; `raw` is a
    /// pre-rendered JSON value.
    pub fn section(&mut self, key: &str, raw: impl Into<String>) -> &mut Self {
        self.sections.push((key.to_string(), raw.into()));
        self
    }

    /// Renders the full document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"report\": \"pronghorn-{}\",\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n",
            self.name
        );
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(out, "  \"config\": {{{}}},", config.join(", "));
        out.push_str("  \"arms\": [\n");
        for (i, arm) in self.arms.iter().enumerate() {
            out.push_str("    ");
            out.push_str(arm);
            if i + 1 < self.arms.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        for (key, raw) in &self.sections {
            let _ = write!(out, ",\n  \"{key}\": {raw}");
        }
        out.push_str("\n}\n");
        out
    }

    /// Renders and writes `results/<filename>`, returning the path.
    pub fn save(&self, filename: &str) -> std::io::Result<std::path::PathBuf> {
        write_results_file(filename, &self.render())
    }
}

/// Merges the codec counters of every cell in a grid.
pub fn grid_codec(grid: &Grid) -> CodecStats {
    let mut total = CodecStats::default();
    for cell in &grid.cells {
        total.merge(&cell.result.codec);
    }
    total
}

/// One [`CodecStats`] block as a single-line JSON object.
fn codec_obj(s: &CodecStats) -> JsonObj {
    JsonObj::new()
        .uint("encodes", s.encodes)
        .uint("encode_skips", s.encode_skips)
        .float("skip_ratio", s.skip_ratio(), 4)
        .uint("bytes_encoded", s.bytes_encoded)
        .uint("bytes_skipped", s.bytes_skipped)
        .uint("allocations_avoided", s.allocations_avoided)
}

/// Renders the report as a JSON document in the shared [`BenchReport`]
/// schema: one arm per labelled grid, with the pooled codec totals as a
/// trailing section. `grids` pairs a label (for example `"fig4"`) with
/// the grid it names.
pub fn render_json(grids: &[(&str, &Grid)]) -> String {
    let mut report = BenchReport::new("grid");
    let mut total = CodecStats::default();
    for (name, grid) in grids {
        let codec = grid_codec(grid);
        total.merge(&codec);
        report.arm(
            JsonObj::new()
                .str("name", name)
                .uint("cells", grid.cells.len() as u64)
                .raw("codec", codec_obj(&codec).render()),
        );
    }
    report.section("codec_total", codec_obj(&total).render());
    report.render()
}

/// Writes `results/BENCH_grid.json` for the given labelled grids,
/// returning the path written.
pub fn write(grids: &[(&str, &Grid)]) -> std::io::Result<std::path::PathBuf> {
    write_results_file("BENCH_grid.json", &render_json(grids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridCell;
    use pronghorn_core::{OverheadTotals, PolicyKind};
    use pronghorn_platform::{ProvisionKind, RunResult};
    use pronghorn_store::StoreStats;

    fn cell(encodes: u64, skips: u64) -> GridCell {
        GridCell {
            workload: "DFS".into(),
            policy: PolicyKind::RequestCentric,
            rate: 4,
            result: RunResult {
                workload: "DFS".into(),
                policy: PolicyKind::RequestCentric,
                eviction_rate: 4,
                latencies_us: vec![1.0],
                overheads: OverheadTotals::default(),
                store_stats: StoreStats::default(),
                provisions: vec![ProvisionKind::Cold],
                checkpoint_ms: vec![],
                restore_ms: vec![],
                snapshot_mb: vec![],
                snapshot_requests: vec![],
                provision_us: 0.0,
                codec: CodecStats {
                    encodes,
                    encode_skips: skips,
                    bytes_encoded: encodes * 100,
                    ..CodecStats::default()
                },
                restore_strategy: pronghorn_platform::RestoreStrategy::Eager,
                restore_infos: vec![],
                chain: pronghorn_store::ChainStats::default(),
                provisioning: pronghorn_platform::ProvisionStats::default(),
                storage: pronghorn_store::StorageStats::default(),
            },
        }
    }

    fn grid() -> Grid {
        Grid {
            cells: vec![cell(3, 1), cell(5, 3)],
        }
    }

    #[test]
    fn shared_schema_has_header_config_and_arms() {
        let mut report = BenchReport::new("example")
            .config("rates", "[1, 4]")
            .config("policy", "\"request-centric\"");
        report.arm(
            JsonObj::new()
                .str("arm", "a")
                .uint("n", 3)
                .float("p99_us", 1234.5, 1)
                .float("unused", f64::NAN, 3)
                .bool("ok", true),
        );
        report.arm(
            JsonObj::new()
                .str("arm", "b")
                .raw("nested", "[1, 2]".into()),
        );
        report.section("extra", "{\"k\": 1}");
        let json = report.render();
        assert!(json.starts_with("{\n  \"report\": \"pronghorn-example\",\n"));
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(!json.contains("wall_clock"));
        assert!(json.contains("\"config\": {\"rates\": [1, 4], \"policy\": \"request-centric\"}"));
        assert!(json.contains(
            "{\"arm\": \"a\", \"n\": 3, \"p99_us\": 1234.5, \"unused\": null, \"ok\": true},"
        ));
        assert!(json.contains("\"nested\": [1, 2]"));
        assert!(json.ends_with("\"extra\": {\"k\": 1}\n}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn grid_codec_merges_every_cell() {
        let total = grid_codec(&grid());
        assert_eq!(total.encodes, 8);
        assert_eq!(total.encode_skips, 4);
        assert_eq!(total.bytes_encoded, 800);
    }

    #[test]
    fn json_report_carries_grids_and_codec_totals() {
        let g = grid();
        let json = render_json(&[("fig4", &g), ("fig5", &g)]);
        assert!(json.contains("\"name\": \"fig4\""));
        assert!(json.contains("\"name\": \"fig5\""));
        // Host time stays out of the report.
        assert!(!json.contains("wall_clock") && !json.contains("_ns"));
        assert!(json.contains("\"encodes\": 8"));
        // codec_total sums both grids.
        assert!(json.contains("\"encodes\": 16"));
        assert!(json.contains("\"config\": {}"));
        assert!(!json.contains("codec_micro"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the tree.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
