//! Property-based tests: the object store's accounting invariants hold
//! under arbitrary operation sequences.

#![forbid(unsafe_code)]

use bytes::Bytes;
use pronghorn_sim::hash::fnv1a_wide;
use pronghorn_store::{ObjectStore, StoreError, StoreStats};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8, Vec<u8>),
    Get(u8, u8),
    Delete(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0u8..4,
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(b, k, v)| Op::Put(b, k, v)),
        (0u8..4, any::<u8>()).prop_map(|(b, k)| Op::Get(b, k)),
        (0u8..4, any::<u8>()).prop_map(|(b, k)| Op::Delete(b, k)),
    ]
}

proptest! {
    /// Live-byte accounting equals the sum of live one-chunk objects;
    /// cumulative transfer counters are monotone; peak >= current, always.
    #[test]
    fn accounting_matches_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut store = ObjectStore::new();
        let mut model: HashMap<(u8, u8), Vec<u8>> = HashMap::new();
        let mut last_uploaded = 0u64;
        let mut last_downloaded = 0u64;
        for op in ops {
            match op {
                Op::Put(b, k, v) => {
                    let body = Bytes::from(v.clone());
                    store.put(&format!("b{b}"), &format!("k{k}"), body);
                    model.insert((b, k), v);
                }
                Op::Get(b, k) => {
                    let got = store.get_chunks(&format!("b{b}"), &format!("k{k}"));
                    match model.get(&(b, k)) {
                        Some(v) => prop_assert_eq!(got.unwrap().concat(), v.as_slice()),
                        None => prop_assert_eq!(got.unwrap_err(), StoreError::NotFound),
                    }
                }
                Op::Delete(b, k) => {
                    let outcome = store.delete(&format!("b{b}"), &format!("k{k}"));
                    prop_assert_eq!(outcome.is_ok(), model.remove(&(b, k)).is_some());
                }
            }
            let stats = store.stats();
            let live: u64 = model.values().map(|v| v.len() as u64).sum();
            prop_assert_eq!(stats.bytes_stored, live);
            prop_assert_eq!(stats.objects as usize, model.len());
            prop_assert!(stats.peak_bytes_stored >= stats.bytes_stored);
            prop_assert!(stats.bytes_uploaded >= last_uploaded);
            prop_assert!(stats.bytes_downloaded >= last_downloaded);
            last_uploaded = stats.bytes_uploaded;
            last_downloaded = stats.bytes_downloaded;
        }
    }
}

proptest! {
    /// Twin-lineage snapshots (identical payloads, distinct heads/keys)
    /// share one refcounted blob; deleting twins in any order never
    /// corrupts a survivor, and the blob is freed only with the last
    /// reference (physical residency drops by the payload only then) —
    /// the DESIGN.md §7.2 regression guard.
    #[test]
    fn twin_blob_survives_arbitrary_eviction_order(
        payload in prop::collection::vec(any::<u8>(), 1..512),
        twins in 2usize..6,
        order_seed in any::<u64>(),
    ) {
        let mut store = ObjectStore::new();
        let payload = Bytes::from(payload);
        let own = |i: usize| (format!("head{i}").len() + b"tail".len()) as u64;
        let hash = fnv1a_wide(&payload);
        for i in 0..twins {
            store.put_chunked(
                "pool",
                &format!("twin{i}"),
                Bytes::from(format!("head{i}").into_bytes()),
                payload.clone(),
                hash,
                Bytes::from_static(b"tail"),
            );
        }
        let heads: u64 = (0..twins).map(own).sum();
        prop_assert_eq!(store.stats().bytes_stored, heads + payload.len() as u64);

        // Deterministic pseudo-shuffled eviction order derived from the seed.
        let mut keys: Vec<usize> = (0..twins).collect();
        let mut s = order_seed;
        for i in (1..keys.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.swap(i, (s >> 33) as usize % (i + 1));
        }
        for (evicted, i) in keys.iter().enumerate() {
            store.delete("pool", &format!("twin{i}")).unwrap();
            for j in &keys[evicted + 1..] {
                let body = store.get_chunks("pool", &format!("twin{j}")).unwrap().concat();
                let expect: Vec<u8> = format!("head{j}")
                    .into_bytes()
                    .into_iter()
                    .chain(payload.iter().copied())
                    .chain(b"tail".iter().copied())
                    .collect();
                prop_assert_eq!(body, expect);
            }
            let live = &keys[evicted + 1..];
            let blob = if live.is_empty() { 0 } else { payload.len() as u64 };
            let heads: u64 = live.iter().map(|&j| own(j)).sum();
            prop_assert_eq!(store.stats().bytes_stored, heads + blob);
        }
    }
}

/// Two byte-identical one-chunk objects (the working-set manifest form:
/// a head with no payload or tail) put, got, replaced and deleted. Every
/// `StoreStats` field matches what the contiguous `put`/`get` this form
/// replaced reported for the same sequence, and they never dedup.
#[test]
fn one_chunk_objects_keep_table5_accounting() {
    let mut store = ObjectStore::new();
    let put = |store: &mut ObjectStore, key: &str, len: usize| {
        let body = Bytes::from(vec![0x4d; len]);
        store.put("manifests", key, body);
    };
    let stats = |stored, uploaded, downloaded, objects, puts, gets, deletes| StoreStats {
        bytes_stored: stored,
        peak_bytes_stored: 96,
        bytes_uploaded: uploaded,
        bytes_downloaded: downloaded,
        bytes_deduped: 0,
        objects,
        puts,
        gets,
        deletes,
    };
    put(&mut store, "f/a", 48);
    put(&mut store, "f/b", 48);
    assert_eq!(store.stats(), stats(96, 96, 0, 2, 2, 0, 0));
    for key in ["f/a", "f/b"] {
        let [body, payload, tail] = store.get_chunks("manifests", key).unwrap();
        assert_eq!(body, Bytes::from(vec![0x4d; 48]));
        assert!(payload.is_empty() && tail.is_empty());
    }
    assert_eq!(store.stats(), stats(96, 96, 96, 2, 2, 2, 0));
    put(&mut store, "f/a", 20);
    assert_eq!(store.stats(), stats(68, 116, 96, 2, 3, 2, 0));
    store.delete("manifests", "f/b").unwrap();
    assert_eq!(store.stats(), stats(20, 116, 96, 1, 3, 2, 1));
}

proptest! {
    /// Chain-index refcount invariant: build an arbitrary forest of
    /// snapshot chains (roots and deltas, including multi-child parents),
    /// then evict every node in an arbitrary order. Every blob must be
    /// freed exactly once — immediately for leaves, deferred through
    /// cascade frees for pinned parents — and the index must drain to
    /// zero tracked nodes and zero pinned bytes.
    #[test]
    fn chain_refcounts_drain_to_zero(
        shapes in prop::collection::vec((any::<bool>(), any::<u16>(), 1u64..1_000), 1..48),
        order_seed in any::<u64>(),
    ) {
        use pronghorn_store::ChainIndex;
        let mut index = ChainIndex::new();
        let mut ids: Vec<u64> = Vec::new();
        for (i, (root, parent_sel, nominal)) in shapes.iter().enumerate() {
            let id = i as u64 + 1;
            if *root || ids.is_empty() {
                index.insert_root(id, *nominal);
            } else {
                let parent = ids[usize::from(*parent_sel) % ids.len()];
                prop_assert!(index.insert_delta(id, parent, *nominal).is_some());
            }
            ids.push(id);
        }
        // Deterministic pseudo-shuffled eviction order from the seed.
        let mut keys = ids.clone();
        let mut s = order_seed;
        for i in (1..keys.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            keys.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut freed: Vec<u64> = Vec::new();
        for id in keys {
            freed.extend(index.evict(id));
        }
        freed.sort_unstable();
        let mut expect = ids.clone();
        expect.sort_unstable();
        prop_assert_eq!(freed, expect);
        prop_assert_eq!(index.tracked_count(), 0);
        prop_assert_eq!(index.live_count(), 0);
        prop_assert_eq!(index.pinned_nominal_bytes(), 0);
    }
}
