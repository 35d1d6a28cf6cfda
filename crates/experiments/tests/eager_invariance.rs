//! Eager-restore bit-identity: the lazy-restore subsystem must leave the
//! default (eager) experiment pipeline byte-for-byte unchanged.
//!
//! `data/summary_quick_golden.csv` was generated by the pre-paging grid
//! runner with the exact context below. If this test fails, an eager code
//! path consumed RNG it did not consume before (or the summary CSV shape
//! changed) — either way the run is no longer comparable with published
//! numbers and the change must be gated behind a non-eager strategy.

#![forbid(unsafe_code)]

use pronghorn_experiments::grid::{run_grid, PAPER_POLICIES, PAPER_RATES};
use pronghorn_experiments::sweep::Rows;
use pronghorn_experiments::{summary, ExperimentContext};

#[test]
fn eager_summary_csv_matches_pre_paging_golden() {
    let ctx = ExperimentContext {
        seed: 0x9e37_79b9,
        invocations: 120,
        threads: 4,
    };
    let grid = run_grid(
        &ctx,
        &["DFS", "Uploader", "Hash"],
        &PAPER_POLICIES,
        &PAPER_RATES,
    );
    let csv = summary::summarize(&[&grid]).to_csv();
    let golden = include_str!("data/summary_quick_golden.csv");
    assert_eq!(
        csv, golden,
        "eager summary.csv diverged from the pre-paging golden output"
    );
}
