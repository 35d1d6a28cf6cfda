//! Conservation properties of the blob directory: residency refcounts
//! match a naive model under arbitrary operation sequences and drain to
//! zero on teardown.

#![forbid(unsafe_code)]

use pronghorn_cluster::BlobDirectory;
use pronghorn_sim::SimTime;
use pronghorn_store::TransferModel;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    /// Checkpoint blob `id` on `node` at time `at`.
    Record { id: u8, node: u32, at: u64 },
    /// Restore blob `id` on `node` at time `at`.
    Access { id: u8, node: u32, at: u64 },
    /// Broadcast blob `id` everywhere.
    Replicate { id: u8 },
    /// Pool-evict blob `id`.
    Evict { id: u8 },
}

fn op_strategy(nodes: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..nodes, 0u64..1_000_000).prop_map(|(id, node, at)| Op::Record {
            id,
            node,
            at
        }),
        (any::<u8>(), 0..nodes, 0u64..1_000_000).prop_map(|(id, node, at)| Op::Access {
            id,
            node,
            at
        }),
        any::<u8>().prop_map(|id| Op::Replicate { id }),
        any::<u8>().prop_map(|id| Op::Evict { id }),
    ]
}

proptest! {
    /// The directory's refcounts equal a naive per-blob resident-set
    /// model after every operation; hits + misses equals accesses; and
    /// teardown releases exactly the tracked references, draining the
    /// global refcount to zero.
    #[test]
    fn refcounts_match_model_and_drain_on_teardown(
        nodes in 1u32..9,
        ops in prop::collection::vec(op_strategy(8), 0..200),
    ) {
        let model_link = TransferModel::default();
        let mut dir = BlobDirectory::new(nodes);
        let mut model: BTreeMap<u8, BTreeSet<u32>> = BTreeMap::new();
        let mut accesses = 0u64;
        for op in &ops {
            match *op {
                Op::Record { id, node, at } => {
                    let node = node % nodes;
                    dir.record(u64::from(id), node, SimTime::from_micros(at));
                    let mut set = BTreeSet::new();
                    set.insert(node);
                    model.insert(id, set);
                }
                Op::Access { id, node, at } => {
                    let node = node % nodes;
                    let a = dir.access(
                        u64::from(id),
                        node,
                        4096,
                        SimTime::from_micros(at),
                        model_link.chained_transfer_time(4096, 1),
                    );
                    accesses += 1;
                    let set = model.entry(id).or_default();
                    // A miss is exactly "tracked but not resident here".
                    prop_assert_eq!(a.hit, set.is_empty() || set.contains(&node));
                    set.insert(node);
                }
                Op::Replicate { id } => {
                    dir.replicate(u64::from(id), 100);
                    if let Some(set) = model.get_mut(&id) {
                        set.extend(0..nodes);
                    }
                }
                Op::Evict { id } => {
                    let released = dir.evict(u64::from(id));
                    let expected = model.remove(&id).map_or(0, |s| s.len() as u64);
                    prop_assert_eq!(released, expected);
                }
            }
            let model_refs: u64 = model.values().map(|s| s.len() as u64).sum();
            prop_assert_eq!(dir.total_refs(), model_refs);
            prop_assert!(dir.total_refs() <= model.len() as u64 * u64::from(nodes));
        }
        let stats = *dir.stats();
        prop_assert_eq!(stats.local_hits + stats.remote_misses, accesses);
        let tracked: u64 = model.values().map(|s| s.len() as u64).sum();
        prop_assert_eq!(dir.teardown(), tracked);
        prop_assert_eq!(dir.total_refs(), 0);
        prop_assert_eq!(dir.tracked(), 0);
    }
}
