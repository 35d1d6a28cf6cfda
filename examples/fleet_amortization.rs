//! Exploration amortization across a worker fleet — §5.3 as a runnable
//! demo.
//!
//! ```text
//! cargo run --release --example fleet_amortization [benchmark] [fleet_size]
//! ```
//!
//! "Only a nonempty subset of containers running a given application need
//! to be exploring in order to realize performance benefits — the
//! remaining containers can simply restore from the best snapshots found
//! so far." This example runs the same open-loop load against a fleet with
//! 0, 1, and all workers exploring, showing that one explorer buys the
//! whole fleet the hot-start benefit at a fraction of the checkpointing
//! cost.

#![forbid(unsafe_code)]

use pronghorn::prelude::*;
use std::num::NonZeroU32;

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| "PageRank".to_string());
    let workers = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let Some(fleet_size) = NonZeroU32::new(workers) else {
        eprintln!("a fleet needs at least one worker");
        std::process::exit(1);
    };
    let Some(workload) = by_name(&bench) else {
        eprintln!("unknown benchmark: {bench}");
        std::process::exit(1);
    };

    println!(
        "fleet: {fleet_size} workers of {bench} sharing one orchestrator; \
         eviction every 4 requests; 600 arrivals\n"
    );
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 0xF1EE7).with_invocations(600);

    println!(
        "{:<26} {:>12} {:>12} {:>13} {:>10}",
        "explorers", "median (µs)", "p90 (µs)", "checkpoints", "restores"
    );
    for explorers in [0, 1, workers] {
        let fleet = TopologySpec::Fleet {
            workers: fleet_size,
            explorers,
        };
        let result = run(&workload, &cfg, ArrivalSpec::ClosedLoop, fleet)
            .expect("explorers never exceed workers");
        let label = match explorers {
            0 => "none (no snapshots)".to_string(),
            1 => "one explorer".to_string(),
            n if n == workers => "every worker".to_string(),
            n => format!("{n} explorers"),
        };
        println!(
            "{label:<26} {:>12.0} {:>12.0} {:>13} {:>10}",
            result.median_us(),
            result.percentile_us(90.0),
            result.checkpoint_ms.len(),
            result.restores(),
        );
    }
    println!(
        "\none explorer gets nearly the full-fleet latency at ~1/{fleet_size} of the\n\
         checkpointing cost — the provider picks the amortization degree (§5.3)"
    );
}
