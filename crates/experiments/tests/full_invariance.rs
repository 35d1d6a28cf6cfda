//! Full-snapshot bit-identity: with delta checkpointing *off* (the
//! default), the experiment pipeline must stay byte-for-byte what it was
//! before the delta subsystem existed.
//!
//! `data/summary_full_golden.csv` was generated by the pre-delta grid
//! runner with the exact context below, over a benchmark subset disjoint
//! from `eager_invariance.rs` so the two goldens pin different workloads.
//! If this test fails, the full-snapshot path consumed RNG it did not
//! consume before, changed what it uploads, or altered the summary CSV
//! shape — any of which breaks comparability with published numbers and
//! must be gated behind `RunConfig::with_delta`.
//!
//! The golden was generated on the binary-heap kernel, which is now only
//! the timer wheel's test oracle; these tests pin the wheel to it.

#![forbid(unsafe_code)]

use pronghorn_experiments::grid::{run_grid, run_grid_cluster, PAPER_POLICIES, PAPER_RATES};
use pronghorn_experiments::sweep::Rows;
use pronghorn_experiments::{summary, ExperimentContext};

fn golden_ctx() -> ExperimentContext {
    ExperimentContext {
        seed: 0x9e37_79b9,
        invocations: 120,
        threads: 4,
    }
}

const GOLDEN_BENCHES: [&str; 3] = ["BFS", "MatrixMult", "Video"];

#[test]
fn full_summary_csv_matches_pre_delta_golden() {
    let grid = run_grid(
        &golden_ctx(),
        &GOLDEN_BENCHES,
        &PAPER_POLICIES,
        &PAPER_RATES,
    );
    let csv = summary::summarize(&[&grid]).to_csv();
    let golden = include_str!("data/summary_full_golden.csv");
    assert_eq!(
        csv, golden,
        "full-snapshot summary.csv diverged from the pre-delta golden output"
    );
}

#[test]
fn timer_wheel_summary_csv_matches_the_same_golden() {
    // The golden was generated by the binary-heap kernel on four sweep
    // threads. The timer wheel must reproduce it byte for byte on one
    // thread too: neither the kernel nor the sweep's scheduling is a
    // result knob.
    let ctx = ExperimentContext {
        threads: 1,
        ..golden_ctx()
    };
    let grid = run_grid(&ctx, &GOLDEN_BENCHES, &PAPER_POLICIES, &PAPER_RATES);
    let csv = summary::summarize(&[&grid]).to_csv();
    let golden = include_str!("data/summary_full_golden.csv");
    assert_eq!(
        csv, golden,
        "single-threaded timer-wheel summary.csv diverged from the binary-heap golden output"
    );
}

#[test]
fn single_node_cluster_summary_csv_matches_the_same_golden() {
    // The golden was generated by the single-node closed-loop runner. A
    // 1-node cluster behind the consistent-hash gateway must reproduce it
    // byte for byte: cluster mode at N=1 is the same run, not an
    // approximation of it.
    let grid = run_grid_cluster(
        &golden_ctx(),
        &GOLDEN_BENCHES,
        &PAPER_POLICIES,
        &PAPER_RATES,
    );
    let csv = summary::summarize(&[&grid]).to_csv();
    let golden = include_str!("data/summary_full_golden.csv");
    assert_eq!(
        csv, golden,
        "single-node cluster summary.csv diverged from the closed-loop golden output"
    );
}

#[test]
fn single_node_cluster_on_the_timer_wheel_matches_the_same_golden() {
    // Both knobs at once: cluster gateway + timer-wheel kernel, on one
    // sweep thread. Still the same committed bytes.
    let ctx = ExperimentContext {
        threads: 1,
        ..golden_ctx()
    };
    let grid = run_grid_cluster(&ctx, &GOLDEN_BENCHES, &PAPER_POLICIES, &PAPER_RATES);
    let csv = summary::summarize(&[&grid]).to_csv();
    let golden = include_str!("data/summary_full_golden.csv");
    assert_eq!(
        csv, golden,
        "single-node cluster (timer wheel) summary.csv diverged from the golden output"
    );
}
