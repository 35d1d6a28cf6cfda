//! Byte pins for the paper's tables and figures.
//!
//! Each writer runs at tiny scale (40 invocations per closed-loop cell;
//! the `ablations` rows use at least 300; Figure 1 runs 40 requests per
//! curve; Figures 4 and 5 share one two-benchmark grid) and its CSV must
//! equal the golden under `data/paper_bytes/` byte for byte. The grid
//! lists its benchmarks out of figure order ("Hash" before "DFS"), so the
//! pins also cover the writers' row order. A change that moves a column,
//! a float precision or a row fails here; a deliberate re-pin regenerates
//! the goldens from the writers.

#![forbid(unsafe_code)]

use pronghorn_experiments::grid::{run_grid, PAPER_POLICIES, PAPER_RATES};
use pronghorn_experiments::sweep::Rows;
use pronghorn_experiments::{
    ablation, fig1, fig45, fig6, fig7, summary, table1, table4, table5, ExperimentContext,
};
use pronghorn_workloads::by_name;

fn ctx() -> ExperimentContext {
    ExperimentContext {
        invocations: 40,
        ..ExperimentContext::quick()
    }
}

fn figure(number: u8) -> fig45::FigureResult {
    fig45::FigureResult {
        figure: number,
        grid: run_grid(&ctx(), &["Hash", "DFS"], &PAPER_POLICIES, &PAPER_RATES),
    }
}

#[test]
fn fig1_writes_the_pinned_bytes() {
    let ctx = ctx();
    let curve = |bench, panel| {
        let workload = by_name(bench).expect("figure benchmark");
        fig1::warmup_curve(&workload, 40, ctx.cell_seed(&["fig1", panel]))
    };
    let result = fig1::Fig1Result {
        curves: vec![curve("DynamicHTML", "pypy"), curve("HTMLRendering", "jvm")],
    };
    assert_eq!(result.to_csv(), include_str!("data/paper_bytes/fig1.csv"));
}

#[test]
fn table1_writes_the_pinned_bytes() {
    assert_eq!(
        table1::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/table1.csv")
    );
}

#[test]
fn fig4_and_fig5_write_the_pinned_bytes() {
    let csv = include_str!("data/paper_bytes/fig45.csv");
    assert_eq!(figure(4).to_csv(), csv);
    assert_eq!(figure(5).to_csv(), csv);
}

#[test]
fn fig6_writes_the_pinned_bytes() {
    assert_eq!(
        fig6::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/fig6.csv")
    );
}

#[test]
fn fig7_writes_the_pinned_bytes() {
    assert_eq!(
        fig7::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/fig7.csv")
    );
}

#[test]
fn table4_writes_the_pinned_bytes() {
    assert_eq!(
        table4::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/table4.csv")
    );
}

#[test]
fn table5_writes_the_pinned_bytes() {
    assert_eq!(
        table5::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/table5.csv")
    );
}

#[test]
fn ablations_write_the_pinned_bytes() {
    assert_eq!(
        ablation::run(&ctx()).to_csv(),
        include_str!("data/paper_bytes/ablations.csv")
    );
}

#[test]
fn summary_writes_the_pinned_bytes() {
    let grid = figure(4).grid;
    assert_eq!(
        summary::summarize(&[&grid]).to_csv(),
        include_str!("data/paper_bytes/summary.csv")
    );
}
