//! Byte pins for the five ablation writers.
//!
//! Each ablation runs on a tiny sweep (two benchmarks at one axis value,
//! 40 invocations per closed-loop cell; the provisioning sweep replays
//! `QUICK_HOURS` of its bursty trace), and its CSV and `BENCH_*.json`
//! documents must equal the goldens under `data/ablation_bytes/` byte for
//! byte. The benchmarks are listed out of figure order ("Hash" before
//! "DFS"), so the pins also cover the writers' row order. A change that
//! moves a column, a key, a float precision or a row fails here; a
//! deliberate re-pin regenerates the goldens from the writers.

#![forbid(unsafe_code)]

use pronghorn_experiments::{
    cluster_ablation, delta_ablation, provision_ablation, restore_ablation, storage_ablation,
    ExperimentContext,
};

const BENCHES: [&str; 2] = ["Hash", "DFS"];

fn ctx() -> ExperimentContext {
    ExperimentContext {
        invocations: 40,
        ..ExperimentContext::quick()
    }
}

#[test]
fn restore_ablation_writes_the_pinned_bytes() {
    let ablation = restore_ablation::run_for(&ctx(), &BENCHES, &[4]);
    assert_eq!(
        ablation.to_csv(),
        include_str!("data/ablation_bytes/restore_ablation.csv")
    );
    assert_eq!(
        ablation.bench_json(),
        include_str!("data/ablation_bytes/BENCH_restore.json")
    );
}

#[test]
fn delta_ablation_writes_the_pinned_bytes() {
    let ablation = delta_ablation::run_for(&ctx(), &BENCHES, &[4]);
    assert_eq!(
        ablation.to_csv(),
        include_str!("data/ablation_bytes/delta_ablation.csv")
    );
    assert_eq!(
        ablation.bench_json(),
        include_str!("data/ablation_bytes/BENCH_delta.json")
    );
}

#[test]
fn storage_ablation_writes_the_pinned_bytes() {
    let ablation = storage_ablation::run_for(&ctx(), &BENCHES, &[4]);
    assert_eq!(
        ablation.to_csv(),
        include_str!("data/ablation_bytes/storage_ablation.csv")
    );
    assert_eq!(
        ablation.bench_json(),
        include_str!("data/ablation_bytes/BENCH_storage.json")
    );
}

#[test]
fn cluster_ablation_writes_the_pinned_bytes() {
    let ablation = cluster_ablation::run_for(&ctx(), &BENCHES, &[4]);
    assert_eq!(
        ablation.to_csv(),
        include_str!("data/ablation_bytes/cluster_ablation.csv")
    );
    assert_eq!(
        ablation.bench_json(),
        include_str!("data/ablation_bytes/BENCH_cluster.json")
    );
}

#[test]
fn provision_ablation_writes_the_pinned_bytes() {
    let ablation = provision_ablation::run_for(
        &ctx(),
        &["Uploader", "DFS"],
        provision_ablation::QUICK_HOURS,
    );
    assert_eq!(
        ablation.sweep.to_csv(),
        include_str!("data/ablation_bytes/provision_ablation.csv")
    );
    assert_eq!(
        ablation.bench_json(),
        include_str!("data/ablation_bytes/BENCH_provision.json")
    );
}
