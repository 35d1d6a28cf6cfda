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
//! per-variant comparison the report exists to make. Each arm object is
//! one list of named [`Value`]s ([`json_object`]), and NaN renders as
//! `null` so a cell that never exercised a path stays machine-readable.
//!
//! No report carries host time, so a rerun with the same seed rewrites
//! every `BENCH_*.json` byte for byte; wall-clock belongs to the
//! benchmark package.
//!
//! This module also owns the grid report proper: the [`CodecStats`]
//! merged across every cell — encodes performed and payload bytes
//! encoded. Codec throughput is measured by the `codec_throughput`
//! criterion bench, not here.

use crate::grid::Grid;
use crate::sweep::{Field, Value};
use pronghorn_checkpoint::CodecStats;
use std::fmt::Write as _;

/// Version stamped into every `BENCH_*.json` header. Bump when the
/// shared header shape (not a report's arm fields) changes.
pub const BENCH_SCHEMA_VERSION: u32 = 3;

/// Renders a list as a single-line JSON object: `{"a": 1, "b": "x"}`.
///
/// Keys and string values are trusted (static labels) and are not
/// escaped; see [`Value::json`] for the value forms.
pub fn json_object(fields: &[Field]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {}", value.json()))
        .collect();
    format!("{{{}}}", body.join(", "))
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
    pub fn arm(&mut self, fields: &[Field]) -> &mut Self {
        self.arms.push(json_object(fields));
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
fn codec_obj(s: &CodecStats) -> String {
    json_object(&[
        ("encodes", Value::Uint(s.encodes)),
        ("bytes_encoded", Value::Uint(s.bytes_encoded)),
    ])
}

/// Renders the report as a JSON document in the shared [`BenchReport`]
/// schema: one arm per labelled grid, with the pooled codec totals as a
/// trailing section. `grids` pairs a label (for example `"fig4"`) with
/// the grid it names.
pub fn render_json(grids: &[(&'static str, &Grid)]) -> String {
    let mut report = BenchReport::new("grid");
    let mut total = CodecStats::default();
    for &(name, grid) in grids {
        let codec = grid_codec(grid);
        total.merge(&codec);
        report.arm(&[
            ("name", Value::Str(name)),
            ("cells", Value::Uint(grid.cells.len() as u64)),
            ("codec", Value::Raw(codec_obj(&codec))),
        ]);
    }
    report.section("codec_total", codec_obj(&total));
    report.render()
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
                nodes: vec![],
                locality: pronghorn_platform::LocalityStats::default(),
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
        report.arm(&[
            ("arm", Value::Str("a")),
            ("n", Value::Uint(3)),
            ("p99_us", Value::Float(1234.5, 1)),
            ("unused", Value::Float(f64::NAN, 3)),
            ("ok", Value::Raw("true".into())),
        ]);
        report.arm(&[
            ("arm", Value::Str("b")),
            ("nested", Value::Raw("[1, 2]".into())),
        ]);
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
