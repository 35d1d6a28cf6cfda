//! The blob map with integrity, dedup, and cost accounting.
//!
//! Every object has one shape: a small head, a content-addressed payload
//! blob and a small tail, written with [`ObjectStore::put_chunked`] (or
//! [`ObjectStore::put`], head only) and read back with
//! [`ObjectStore::get_chunks`]. Payload blobs are
//! deduplicated across keys by their `Fnv1aWide` content hash with
//! refcounting — byte-identical snapshot payloads from twin lineages
//! occupy storage once, and a blob is only freed when its *last*
//! referencing object is deleted (the §7.2 twin-eviction guard: evicting
//! one twin must never corrupt the other). An object with an empty
//! payload, such as a working-set manifest stored as its head alone,
//! holds no blob and so never dedups.
//!
//! Logical sizes (what a get returns) are what the transfer counters
//! record, while `bytes_stored` tracks physical (deduplicated) residency.

use crate::accounting::saturating_accumulate;
use bytes::Bytes;
use pronghorn_sim::hash::{fnv1a_wide, Fnv1aWide};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Errors returned by the object store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No such bucket/key.
    NotFound,
    /// The stored bytes no longer match their recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded at upload.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound => write!(f, "object not found"),
            StoreError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#x}, got {actual:#x}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Storage and transfer accounting, the raw inputs of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Physical bytes currently stored (deduplicated blobs counted once).
    pub bytes_stored: u64,
    /// Peak of `bytes_stored` over the store's lifetime ("Max Storage
    /// Used" in Table 5).
    pub peak_bytes_stored: u64,
    /// Cumulative bytes uploaded (checkpoint transfers). Deduplicated
    /// payloads are not re-transferred: a content-addressed client sends
    /// the hash and skips the body.
    pub bytes_uploaded: u64,
    /// Cumulative bytes downloaded (restore transfers). Upload + download
    /// together are Table 5's "Max Network Used".
    pub bytes_downloaded: u64,
    /// Payload bytes that dedup avoided storing and uploading.
    pub bytes_deduped: u64,
    /// Number of objects currently stored.
    pub objects: u64,
    /// Completed put operations.
    pub puts: u64,
    /// Completed get operations.
    pub gets: u64,
    /// Completed delete operations.
    pub deletes: u64,
}

impl StoreStats {
    /// Folds `other` into `self`, for aggregating disjoint stores (one per
    /// deployment). Every counter adds, so the peak becomes an upper bound
    /// on the stores' joint peak.
    pub fn merge(&mut self, other: &StoreStats) {
        saturating_accumulate("bytes_stored", &mut self.bytes_stored, other.bytes_stored);
        saturating_accumulate(
            "peak_bytes_stored",
            &mut self.peak_bytes_stored,
            other.peak_bytes_stored,
        );
        saturating_accumulate(
            "bytes_uploaded",
            &mut self.bytes_uploaded,
            other.bytes_uploaded,
        );
        saturating_accumulate(
            "bytes_downloaded",
            &mut self.bytes_downloaded,
            other.bytes_downloaded,
        );
        saturating_accumulate(
            "bytes_deduped",
            &mut self.bytes_deduped,
            other.bytes_deduped,
        );
        self.objects += other.objects;
        self.puts += other.puts;
        self.gets += other.gets;
        self.deletes += other.deletes;
    }
}

/// A refcounted, content-addressed payload blob.
struct BlobEntry {
    data: Bytes,
    refs: u64,
}

struct Object {
    head: Bytes,
    /// Content address into the blob table; `None` for an empty payload.
    blob: Option<u64>,
    tail: Bytes,
    /// `Fnv1aWide` over head ++ tail.
    checksum: u64,
}

impl Object {
    fn own_len(&self) -> u64 {
        (self.head.len() + self.tail.len()) as u64
    }
}

fn checksum_of(head: &[u8], tail: &[u8]) -> u64 {
    let mut h = Fnv1aWide::new();
    h.write(head);
    h.write(tail);
    h.finish()
}

/// A bucket/key object store with content-integrity-checked reads.
#[derive(Default)]
pub struct ObjectStore {
    buckets: BTreeMap<String, BTreeMap<String, Object>>,
    blobs: BTreeMap<u64, BlobEntry>,
    stats: StoreStats,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Uploads an object — head, payload, tail — under `bucket`/`key`,
    /// replacing any previous object there and deduplicating the payload
    /// by content across all keys and buckets.
    ///
    /// `payload_hash` is `fnv1a_wide(&payload)`, the payload's content
    /// address. Its producer has it already (a full snapshot carries it),
    /// so an upload does not hash the payload again; every get still does.
    ///
    /// If a byte-identical payload is already resident (a twin lineage's
    /// snapshot), only the small head and tail are stored and transferred;
    /// the payload gains a reference instead. An empty payload stores no
    /// blob.
    pub fn put_chunked(
        &mut self,
        bucket: &str,
        key: &str,
        head: Bytes,
        payload: Bytes,
        payload_hash: u64,
        tail: Bytes,
    ) {
        debug_assert_eq!(payload_hash, fnv1a_wide(&payload), "{bucket}/{key}");
        let payload_len = payload.len() as u64;
        let mut added = (head.len() + tail.len()) as u64;
        let blob = (!payload.is_empty()).then_some(payload_hash);
        if let Some(hash) = blob {
            match self.blobs.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert(BlobEntry {
                        data: payload,
                        refs: 1,
                    });
                    added += payload_len;
                }
                Entry::Occupied(mut slot) => {
                    slot.get_mut().refs += 1;
                    saturating_accumulate(
                        "bytes_deduped",
                        &mut self.stats.bytes_deduped,
                        payload_len,
                    );
                }
            }
        }
        // The new reference is taken first, so a blob the replaced object
        // shares with this one stays resident and is not counted as freed.
        let freed = self.remove_object(bucket, key);
        let checksum = checksum_of(&head, &tail);
        self.buckets.entry(bucket.to_string()).or_default().insert(
            key.to_string(),
            Object {
                head,
                blob,
                tail,
                checksum,
            },
        );
        let stats = &mut self.stats;
        stats.bytes_stored = stats.bytes_stored - freed.unwrap_or(0) + added;
        stats.peak_bytes_stored = stats.peak_bytes_stored.max(stats.bytes_stored);
        saturating_accumulate("bytes_uploaded", &mut stats.bytes_uploaded, added);
        stats.puts += 1;
        if freed.is_none() {
            stats.objects += 1;
        }
    }

    /// Uploads a one-chunk object: `body` is its head, and it has no
    /// payload blob, so it never dedups.
    pub fn put(&mut self, bucket: &str, key: &str, body: Bytes) {
        let empty = fnv1a_wide(&[]);
        self.put_chunked(bucket, key, body, Bytes::new(), empty, Bytes::new());
    }

    /// Downloads the object at `bucket`/`key` as its stored chunks
    /// `[head, payload, tail]`, zero-copy (the returned [`Bytes`] share
    /// the store's buffers), after verifying the head/tail checksum and
    /// re-hashing the payload.
    pub fn get_chunks(&mut self, bucket: &str, key: &str) -> Result<[Bytes; 3], StoreError> {
        let object = self
            .buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .ok_or(StoreError::NotFound)?;
        let actual = checksum_of(&object.head, &object.tail);
        if actual != object.checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: object.checksum,
                actual,
            });
        }
        let payload = match object.blob {
            Some(hash) => {
                let data = &self.blobs[&hash].data;
                let actual = fnv1a_wide(data);
                if actual != hash {
                    return Err(StoreError::ChecksumMismatch {
                        expected: hash,
                        actual,
                    });
                }
                data.clone()
            }
            None => Bytes::new(),
        };
        let chunks = [object.head.clone(), payload, object.tail.clone()];
        let len = chunks.iter().map(|c| c.len() as u64).sum::<u64>();
        saturating_accumulate("bytes_downloaded", &mut self.stats.bytes_downloaded, len);
        self.stats.gets += 1;
        Ok(chunks)
    }

    /// Deletes the object at `bucket`/`key`. A deduplicated payload blob
    /// is freed only when its last referencing object goes away.
    pub fn delete(&mut self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let freed = self
            .remove_object(bucket, key)
            .ok_or(StoreError::NotFound)?;
        self.stats.bytes_stored -= freed;
        self.stats.objects -= 1;
        self.stats.deletes += 1;
        Ok(())
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Restarts the accounting: the cumulative counters go to zero, the
    /// gauges (`bytes_stored`, `objects`) keep the current contents and
    /// the peak restarts from them. Stored objects are untouched.
    pub fn reset_stats(&mut self) {
        let stats = &mut self.stats;
        *stats = StoreStats {
            bytes_stored: stats.bytes_stored,
            peak_bytes_stored: stats.bytes_stored,
            objects: stats.objects,
            ..StoreStats::default()
        };
    }

    /// Removes the object under `bucket`/`key` (if any), releasing its
    /// blob reference, and returns the physical bytes freed.
    fn remove_object(&mut self, bucket: &str, key: &str) -> Option<u64> {
        let object = self.buckets.get_mut(bucket)?.remove(key)?;
        let mut freed = object.own_len();
        if let Some(hash) = object.blob {
            // A live object's blob entry always exists (ref inserts and
            // removes are paired in put/remove). Should that ever break,
            // degrade to not counting the blob as freed — this runs on the
            // policy's eviction path, where a panic would abort the whole
            // decision loop (pronglint rule `panic-reach`).
            if let Some(entry) = self.blobs.get_mut(&hash) {
                entry.refs = entry.refs.saturating_sub(1);
                if entry.refs == 0 {
                    freed += entry.data.len() as u64;
                    self.blobs.remove(&hash);
                }
            } else {
                debug_assert!(false, "blob entry missing for live ref {hash}");
            }
        }
        Some(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    /// Uploads `head`, `payload` and `tail`, hashing the payload here.
    fn upload(
        s: &mut ObjectStore,
        bucket: &str,
        key: &str,
        head: Bytes,
        payload: Bytes,
        tail: Bytes,
    ) {
        let hash = fnv1a_wide(&payload);
        s.put_chunked(bucket, key, head, payload, hash, tail);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "b/k")]
    fn a_payload_hash_that_does_not_match_fails_in_debug_builds() {
        let mut s = ObjectStore::new();
        let hash = fnv1a_wide(&blob(31));
        s.put_chunked("b", "k", blob(4), blob(32), hash, blob(4));
    }

    #[test]
    fn put_get_round_trip_with_checksum() {
        let mut s = ObjectStore::new();
        s.put("b", "k", Bytes::from_static(b"hello"));
        let [head, payload, tail] = s.get_chunks("b", "k").unwrap();
        assert_eq!(&head[..], b"hello");
        assert!(payload.is_empty() && tail.is_empty());
        // A head that no longer matches its recorded checksum is refused.
        s.buckets.get_mut("b").unwrap().get_mut("k").unwrap().head = Bytes::from_static(b"jello");
        assert!(matches!(
            s.get_chunks("b", "k"),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // So is a payload blob whose bytes no longer match its address.
        upload(&mut s, "b", "c", blob(4), blob(32), blob(4));
        let hash = fnv1a_wide(&blob(32));
        s.blobs.get_mut(&hash).unwrap().data = blob(31);
        let err = s.get_chunks("b", "c").unwrap_err();
        assert_eq!(
            err,
            StoreError::ChecksumMismatch {
                expected: hash,
                actual: fnv1a_wide(&blob(31)),
            }
        );
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut s = ObjectStore::new();
        assert_eq!(s.delete("b", "k").unwrap_err(), StoreError::NotFound);
        assert_eq!(s.get_chunks("b", "k").unwrap_err(), StoreError::NotFound);
    }

    #[test]
    fn replace_updates_storage_accounting() {
        let mut s = ObjectStore::new();
        s.put("b", "k", blob(100));
        s.put("b", "k", blob(40));
        let st = s.stats();
        assert_eq!(st.bytes_stored, 40);
        assert_eq!(st.peak_bytes_stored, 100);
        assert_eq!(st.bytes_uploaded, 140);
        assert_eq!(st.objects, 1);
    }

    #[test]
    fn delete_releases_storage() {
        let mut s = ObjectStore::new();
        s.put("b", "k", blob(64));
        s.delete("b", "k").unwrap();
        let st = s.stats();
        assert_eq!(st.bytes_stored, 0);
        assert_eq!(st.objects, 0);
        // Peak and cumulative transfer survive deletion.
        assert_eq!(st.peak_bytes_stored, 64);
        assert_eq!(st.bytes_uploaded, 64);
    }

    #[test]
    fn downloads_accumulate() {
        let mut s = ObjectStore::new();
        s.put("b", "k", blob(10));
        s.get_chunks("b", "k").unwrap();
        s.get_chunks("b", "k").unwrap();
        assert_eq!(s.stats().bytes_downloaded, 20);
        assert_eq!(s.stats().gets, 2);
    }

    #[test]
    fn buckets_are_isolated() {
        let mut s = ObjectStore::new();
        s.put("snapshots", "k", blob(1));
        assert_eq!(
            s.get_chunks("other", "k").unwrap_err(),
            StoreError::NotFound
        );
        assert_eq!(s.delete("other", "k").unwrap_err(), StoreError::NotFound);
        assert!(s.get_chunks("snapshots", "k").is_ok());
    }

    fn chunked(tag: u8, payload: &Bytes) -> (Bytes, Bytes, Bytes) {
        (
            Bytes::from(vec![tag; 16]),
            payload.clone(),
            Bytes::from(vec![tag ^ 0xff; 8]),
        )
    }

    #[test]
    fn chunked_round_trips_contiguously_and_by_chunks() {
        let mut s = ObjectStore::new();
        let payload = blob(100);
        let (h, p, t) = chunked(1, &payload);
        upload(&mut s, "b", "k", h.clone(), p, t.clone());
        // Chunked read is exact ...
        let chunks = s.get_chunks("b", "k").unwrap();
        assert_eq!(chunks, [h.clone(), payload.clone(), t.clone()]);
        // ... and laid end to end gives the logical object.
        let whole = chunks.concat();
        assert_eq!(whole.len(), 124);
        assert_eq!(&whole[..16], &h[..]);
        assert_eq!(&whole[16..116], &payload[..]);
        assert_eq!(&whole[116..], &t[..]);
        assert_eq!(s.stats().bytes_downloaded, 124);
    }

    #[test]
    fn twin_payloads_are_stored_once() {
        let mut s = ObjectStore::new();
        let payload = blob(1000);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        upload(&mut s, "b", "twin-a", h1, p1, t1);
        let before = s.stats();
        assert_eq!(before.bytes_stored, 24 + 1000);
        upload(&mut s, "b", "twin-b", h2, p2, t2);
        let after = s.stats();
        // Second twin adds only head+tail physically.
        assert_eq!(after.bytes_stored, before.bytes_stored + 24);
        assert_eq!(after.bytes_deduped, 1000);
        assert_eq!(after.bytes_uploaded, before.bytes_uploaded + 24);
        assert_eq!(after.objects, 2);
        assert_eq!(s.blobs.len(), 1);
    }

    #[test]
    fn twin_eviction_preserves_the_survivor() {
        // The §7.2 guard: deleting one twin must not free the shared blob.
        let mut s = ObjectStore::new();
        let payload = blob(500);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        upload(&mut s, "b", "twin-a", h1, p1, t1);
        upload(&mut s, "b", "twin-b", h2, p2, t2);
        s.delete("b", "twin-a").unwrap();
        assert_eq!(s.blobs.len(), 1, "blob must survive the first eviction");
        let chunks = s.get_chunks("b", "twin-b").unwrap();
        assert_eq!(chunks[1], payload);
        // Last reference gone: blob is freed, storage returns to zero.
        s.delete("b", "twin-b").unwrap();
        assert!(s.blobs.is_empty());
        assert_eq!(s.stats().bytes_stored, 0);
    }

    #[test]
    fn replacing_chunked_object_releases_blob_reference() {
        let mut s = ObjectStore::new();
        let payload = blob(300);
        let (h, p, t) = chunked(1, &payload);
        upload(&mut s, "b", "k", h, p, t);
        // Replace with a one-chunk object: the orphaned blob must be freed.
        s.put("b", "k", blob(10));
        assert!(s.blobs.is_empty());
        assert_eq!(s.stats().bytes_stored, 10);
        assert_eq!(s.stats().objects, 1);
        // Replacing an object with a twin of its own payload keeps the
        // blob resident and counts the payload as deduplicated.
        let (h, p, t) = chunked(2, &payload);
        upload(&mut s, "b", "k", h.clone(), p.clone(), t.clone());
        upload(&mut s, "b", "k", h, p, t);
        let st = s.stats();
        assert_eq!(st.bytes_stored, 24 + 300);
        assert_eq!(st.bytes_uploaded, 10 + 324 + 324 + 24);
        assert_eq!(st.bytes_deduped, 300);
        assert_eq!(s.blobs.len(), 1);
    }

    #[test]
    fn chunked_capacity_counts_physical_bytes() {
        // Residency is physical: a twin adds only its own head and tail,
        // a distinct payload of the same size adds itself in full.
        let mut s = ObjectStore::new();
        let payload = blob(1000);
        let (h1, p1, t1) = chunked(1, &payload);
        upload(&mut s, "b", "a", h1, p1, t1);
        assert_eq!(s.stats().bytes_stored, 1024);
        let (h2, p2, t2) = chunked(2, &payload);
        upload(&mut s, "b", "b", h2, p2, t2);
        assert_eq!(s.stats().bytes_stored, 1048);
        let other = Bytes::from(vec![0x11u8; 1000]);
        let (h3, p3, t3) = chunked(3, &other);
        upload(&mut s, "b", "c", h3, p3, t3);
        assert_eq!(s.stats().bytes_stored, 2072);
        assert_eq!(s.stats().peak_bytes_stored, 2072);
    }

    #[test]
    fn dedup_spans_buckets_and_plain_objects_do_not_dedup() {
        let mut s = ObjectStore::new();
        let payload = blob(200);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        upload(&mut s, "x", "k", h1, p1, t1);
        upload(&mut s, "y", "k", h2, p2, t2);
        assert_eq!(s.blobs.len(), 1);
        // One-chunk objects of identical bytes still store twice: their
        // body is a head, never a shared blob.
        s.put("z", "a", payload.clone());
        s.put("z", "b", payload.clone());
        assert_eq!(s.blobs.len(), 1);
        assert_eq!(s.stats().bytes_stored, 24 * 2 + 200 + 200 + 200);
    }
}
