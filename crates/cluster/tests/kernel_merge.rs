//! Model-equivalence of the N-node kernel interleaving.
//!
//! The cluster runner drives all nodes from one global kernel. This test
//! pins the alternative decomposition — one kernel per node, merged by
//! `(time, global arrival seq)` — to the single-kernel reference: for any
//! arrival set, the per-node kernels popped and merged yield exactly the
//! global kernel's pop order.

#![forbid(unsafe_code)]

use pronghorn_cluster::HashRing;
use pronghorn_sim::{SimTime, TimerWheel};
use proptest::prelude::*;

/// Pops everything out of `kernel`, tagging each event with its pop time.
fn drain(kernel: &mut TimerWheel<u64>) -> Vec<(SimTime, u64)> {
    let mut out = Vec::new();
    while let Some((at, seq)) = kernel.pop() {
        out.push((at, seq));
    }
    out
}

/// Runs one arrival set through the reference single kernel and through
/// per-node kernels + merge, asserting identical order.
fn check(arrivals: &[(u64, u32)], nodes: u32) {
    // Reference: one global kernel; insertion order is the global seq.
    let mut global = TimerWheel::new();
    for (seq, &(at, _)) in arrivals.iter().enumerate() {
        global.schedule(SimTime::from_micros(at), seq as u64);
    }
    let expected = drain(&mut global);

    // Sharded: one kernel per node, same global seq payloads.
    let mut shards: Vec<TimerWheel<u64>> = (0..nodes).map(|_| TimerWheel::new()).collect();
    for (seq, &(at, node)) in arrivals.iter().enumerate() {
        shards[(node % nodes) as usize].schedule(SimTime::from_micros(at), seq as u64);
    }
    let mut merged: Vec<(SimTime, u64)> = Vec::with_capacity(arrivals.len());
    for shard in &mut shards {
        merged.extend(drain(shard));
    }
    // The single-kernel reference breaks same-instant ties by insertion
    // order, which is exactly the global seq — so the merge key is
    // (time, seq).
    merged.sort_unstable_by_key(|&(at, seq)| (at, seq));

    assert_eq!(
        merged, expected,
        "merge of {nodes} shards diverged from the single-kernel reference"
    );
}

proptest! {
    /// Per-node kernels merged by (time, seq) equal the single global
    /// kernel — including bursts of same-instant arrivals landing on
    /// different nodes.
    #[test]
    fn sharded_kernels_merge_to_the_single_queue_order(
        nodes in 1u32..9,
        arrivals in prop::collection::vec((0u64..50_000, any::<u32>()), 0..300),
    ) {
        check(&arrivals, nodes);
    }

    /// The routed decomposition (arrivals sharded by the consistent-hash
    /// ring rather than arbitrarily) is a special case of the same law.
    #[test]
    fn ring_routed_decomposition_preserves_global_order(
        nodes in 1u32..9,
        times in prop::collection::vec(0u64..10_000, 0..200),
        seed in any::<u64>(),
    ) {
        let ring = HashRing::new(nodes);
        let arrivals: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let id = format!("fn-{}", seed.wrapping_add(i as u64 % 7));
                (t, ring.route(&id))
            })
            .collect();
        check(&arrivals, nodes);
    }
}
