//! The shared blob map with integrity, dedup, and cost accounting.
//!
//! Objects come in two physical shapes:
//!
//! - **plain**: one contiguous byte buffer (the original API);
//! - **chunked**: a small head + a content-addressed payload blob + a small
//!   tail, written via [`ObjectStore::put_chunked`]. Payload blobs are
//!   deduplicated across keys by their `Fnv1aWide` content hash with
//!   refcounting — byte-identical snapshot payloads from twin lineages
//!   occupy storage once, and a blob is only freed when its *last*
//!   referencing object is deleted (the §7.2 twin-eviction guard: evicting
//!   one twin must never corrupt the other).
//!
//! Both shapes share the same key namespace, accounting counters, and
//! integrity checks; logical sizes (what a `get` returns) are what the
//! transfer counters record, while `bytes_stored` tracks physical
//! (deduplicated) residency.

use crate::accounting::saturating_accumulate;
use bytes::Bytes;
use parking_lot::Mutex;
use pronghorn_sim::hash::{fnv1a_wide, Fnv1aWide};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
    /// A put would exceed the configured capacity.
    CapacityExceeded {
        /// Configured capacity in bytes.
        capacity: u64,
        /// Bytes that would be stored after the put.
        required: u64,
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
            StoreError::CapacityExceeded { capacity, required } => {
                write!(f, "capacity {capacity} B exceeded (required {required} B)")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Metadata of a stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Logical object size in bytes (what a `get` returns).
    pub size: u64,
    /// `Fnv1aWide` checksum of the object's own (non-deduplicated) bytes:
    /// the whole buffer for plain objects, head + tail for chunked ones.
    pub checksum: u64,
}

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
    /// Plain objects: the whole buffer. Chunked objects: the frame head.
    head: Bytes,
    /// Content address into the blob table (chunked objects only).
    blob: Option<u64>,
    /// Frame tail (chunked objects only; empty otherwise).
    tail: Bytes,
    /// `Fnv1aWide` over head ++ tail.
    checksum: u64,
}

impl Object {
    fn own_len(&self) -> u64 {
        (self.head.len() + self.tail.len()) as u64
    }
}

#[derive(Default)]
struct Inner {
    buckets: BTreeMap<String, BTreeMap<String, Object>>,
    blobs: BTreeMap<u64, BlobEntry>,
    stats: StoreStats,
    capacity: Option<u64>,
}

impl Inner {
    fn logical_len(&self, object: &Object) -> u64 {
        let blob_len = object
            .blob
            .map(|h| self.blobs[&h].data.len() as u64)
            .unwrap_or(0);
        object.own_len() + blob_len
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

    /// Physical bytes that removing `bucket`/`key` would free, assuming a
    /// blob with hash `incoming` is about to gain a reference (so a blob
    /// shared with the incoming object is not counted as freed).
    fn would_free(&self, bucket: &str, key: &str, incoming: Option<u64>) -> u64 {
        let Some(object) = self.buckets.get(bucket).and_then(|b| b.get(key)) else {
            return 0;
        };
        let mut freed = object.own_len();
        if let Some(hash) = object.blob {
            if self.blobs[&hash].refs == 1 && incoming != Some(hash) {
                freed += self.blobs[&hash].data.len() as u64;
            }
        }
        freed
    }

    fn checksum_of(head: &[u8], tail: &[u8]) -> u64 {
        let mut h = Fnv1aWide::new();
        h.write(head);
        h.write(tail);
        h.finish()
    }

    fn verify(&self, object: &Object) -> Result<(), StoreError> {
        let actual = Inner::checksum_of(&object.head, &object.tail);
        if actual != object.checksum {
            return Err(StoreError::ChecksumMismatch {
                expected: object.checksum,
                actual,
            });
        }
        if let Some(hash) = object.blob {
            let actual = fnv1a_wide(&self.blobs[&hash].data);
            if actual != hash {
                return Err(StoreError::ChecksumMismatch {
                    expected: hash,
                    actual,
                });
            }
        }
        Ok(())
    }
}

/// Cloneable handle to a shared content-integrity-checked object store.
#[derive(Clone, Default)]
pub struct ObjectStore {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ObjectStore")
            .field("buckets", &inner.buckets.len())
            .field("objects", &inner.stats.objects)
            .field("blobs", &inner.blobs.len())
            .finish()
    }
}

impl ObjectStore {
    /// Creates an unbounded store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Creates a store that rejects puts once `capacity` bytes are resident.
    ///
    /// The paper bounds the snapshot pool by *count* (`C`); the capacity
    /// here additionally lets a provider bound raw bytes (§5.3 "the cloud
    /// provider can also directly lower the storage overhead").
    pub fn with_capacity(capacity: u64) -> Self {
        let store = ObjectStore::new();
        store.inner.lock().capacity = Some(capacity);
        store
    }

    /// Uploads `data` under `bucket`/`key`, replacing any previous object.
    ///
    /// Returns the stored object's metadata.
    pub fn put(&self, bucket: &str, key: &str, data: Bytes) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.inner.lock();
        let size = data.len() as u64;
        let released = inner.would_free(bucket, key, None);
        let required = inner.stats.bytes_stored - released + size;
        if let Some(cap) = inner.capacity {
            if required > cap {
                return Err(StoreError::CapacityExceeded {
                    capacity: cap,
                    required,
                });
            }
        }
        let replaced = inner.remove_object(bucket, key).is_some();
        let checksum = fnv1a_wide(&data);
        let object = Object {
            head: data,
            blob: None,
            tail: Bytes::new(),
            checksum,
        };
        inner
            .buckets
            .entry(bucket.to_string())
            .or_default()
            .insert(key.to_string(), object);
        inner.stats.bytes_stored = required;
        inner.stats.peak_bytes_stored = inner.stats.peak_bytes_stored.max(required);
        saturating_accumulate("bytes_uploaded", &mut inner.stats.bytes_uploaded, size);
        inner.stats.puts += 1;
        if !replaced {
            inner.stats.objects += 1;
        }
        Ok(ObjectMeta { size, checksum })
    }

    /// Uploads a chunked object — head, payload, tail — deduplicating the
    /// payload by content across all keys and buckets.
    ///
    /// If a byte-identical payload is already resident (a twin lineage's
    /// snapshot), only the small head and tail are stored and transferred;
    /// the payload gains a reference instead. The returned metadata's
    /// `size` is the logical (reassembled) size.
    pub fn put_chunked(
        &self,
        bucket: &str,
        key: &str,
        head: Bytes,
        payload: Bytes,
        tail: Bytes,
    ) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.inner.lock();
        let hash = fnv1a_wide(&payload);
        let blob_is_new = !inner.blobs.contains_key(&hash);
        let own = (head.len() + tail.len()) as u64;
        let payload_len = payload.len() as u64;
        let added = own + if blob_is_new { payload_len } else { 0 };
        let released = inner.would_free(bucket, key, Some(hash));
        let required = inner.stats.bytes_stored - released + added;
        if let Some(cap) = inner.capacity {
            if required > cap {
                return Err(StoreError::CapacityExceeded {
                    capacity: cap,
                    required,
                });
            }
        }
        let replaced = inner.remove_object(bucket, key).is_some();
        inner
            .blobs
            .entry(hash)
            .or_insert_with(|| BlobEntry {
                data: payload,
                refs: 0,
            })
            .refs += 1;
        let checksum = Inner::checksum_of(&head, &tail);
        let object = Object {
            head,
            blob: Some(hash),
            tail,
            checksum,
        };
        inner
            .buckets
            .entry(bucket.to_string())
            .or_default()
            .insert(key.to_string(), object);
        inner.stats.bytes_stored = required;
        inner.stats.peak_bytes_stored = inner.stats.peak_bytes_stored.max(required);
        saturating_accumulate("bytes_uploaded", &mut inner.stats.bytes_uploaded, added);
        if !blob_is_new {
            saturating_accumulate("bytes_deduped", &mut inner.stats.bytes_deduped, payload_len);
        }
        inner.stats.puts += 1;
        if !replaced {
            inner.stats.objects += 1;
        }
        Ok(ObjectMeta {
            size: own + payload_len,
            checksum,
        })
    }

    /// Downloads the object at `bucket`/`key` as one contiguous buffer,
    /// verifying its checksums. Chunked objects are reassembled (copied);
    /// prefer [`Self::get_chunks`] for those on hot paths.
    pub fn get(&self, bucket: &str, key: &str) -> Result<Bytes, StoreError> {
        let mut inner = self.inner.lock();
        let object = inner
            .buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .ok_or(StoreError::NotFound)?;
        inner.verify(object)?;
        let data = match object.blob {
            None => object.head.clone(),
            Some(hash) => {
                let blob = &inner.blobs[&hash].data;
                let mut out =
                    Vec::with_capacity(object.head.len() + blob.len() + object.tail.len());
                out.extend_from_slice(&object.head);
                out.extend_from_slice(blob);
                out.extend_from_slice(&object.tail);
                Bytes::from(out)
            }
        };
        let len = data.len() as u64;
        saturating_accumulate("bytes_downloaded", &mut inner.stats.bytes_downloaded, len);
        inner.stats.gets += 1;
        Ok(data)
    }

    /// Downloads the object at `bucket`/`key` as its stored chunks,
    /// zero-copy: the returned [`Bytes`] share the store's buffers.
    /// Plain objects yield a single chunk; chunked objects yield
    /// `[head, payload, tail]`.
    pub fn get_chunks(&self, bucket: &str, key: &str) -> Result<Vec<Bytes>, StoreError> {
        let mut inner = self.inner.lock();
        let object = inner
            .buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .ok_or(StoreError::NotFound)?;
        inner.verify(object)?;
        let chunks = match object.blob {
            None => vec![object.head.clone()],
            Some(hash) => vec![
                object.head.clone(),
                inner.blobs[&hash].data.clone(),
                object.tail.clone(),
            ],
        };
        let len = chunks.iter().map(|c| c.len() as u64).sum::<u64>();
        saturating_accumulate("bytes_downloaded", &mut inner.stats.bytes_downloaded, len);
        inner.stats.gets += 1;
        Ok(chunks)
    }

    /// Returns metadata without transferring the object.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let inner = self.inner.lock();
        let object = inner
            .buckets
            .get(bucket)
            .and_then(|b| b.get(key))
            .ok_or(StoreError::NotFound)?;
        Ok(ObjectMeta {
            size: inner.logical_len(object),
            checksum: object.checksum,
        })
    }

    /// Deletes the object at `bucket`/`key`. A deduplicated payload blob
    /// is freed only when its last referencing object goes away.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let freed = inner
            .remove_object(bucket, key)
            .ok_or(StoreError::NotFound)?;
        inner.stats.bytes_stored -= freed;
        inner.stats.objects -= 1;
        inner.stats.deletes += 1;
        Ok(())
    }

    /// Lists keys in `bucket`, sorted (the bucket map is ordered).
    pub fn list(&self, bucket: &str) -> Vec<String> {
        let inner = self.inner.lock();
        inner
            .buckets
            .get(bucket)
            .map(|b| b.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Number of distinct payload blobs resident in the dedup table.
    pub fn blob_count(&self) -> usize {
        self.inner.lock().blobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize) -> Bytes {
        Bytes::from(vec![0xabu8; n])
    }

    #[test]
    fn put_get_round_trip_with_checksum() {
        let s = ObjectStore::new();
        let meta = s.put("b", "k", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(meta.size, 5);
        assert_eq!(meta.checksum, fnv1a_wide(b"hello"));
        assert_eq!(&s.get("b", "k").unwrap()[..], b"hello");
    }

    #[test]
    fn get_missing_is_not_found() {
        let s = ObjectStore::new();
        assert_eq!(s.get("b", "k").unwrap_err(), StoreError::NotFound);
        assert_eq!(s.head("b", "k").unwrap_err(), StoreError::NotFound);
        assert_eq!(s.delete("b", "k").unwrap_err(), StoreError::NotFound);
        assert_eq!(s.get_chunks("b", "k").unwrap_err(), StoreError::NotFound);
    }

    #[test]
    fn replace_updates_storage_accounting() {
        let s = ObjectStore::new();
        s.put("b", "k", blob(100)).unwrap();
        s.put("b", "k", blob(40)).unwrap();
        let st = s.stats();
        assert_eq!(st.bytes_stored, 40);
        assert_eq!(st.peak_bytes_stored, 100);
        assert_eq!(st.bytes_uploaded, 140);
        assert_eq!(st.objects, 1);
    }

    #[test]
    fn delete_releases_storage() {
        let s = ObjectStore::new();
        s.put("b", "k", blob(64)).unwrap();
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
        let s = ObjectStore::new();
        s.put("b", "k", blob(10)).unwrap();
        s.get("b", "k").unwrap();
        s.get("b", "k").unwrap();
        assert_eq!(s.stats().bytes_downloaded, 20);
        assert_eq!(s.stats().gets, 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let s = ObjectStore::with_capacity(100);
        s.put("b", "a", blob(60)).unwrap();
        let err = s.put("b", "b", blob(50)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CapacityExceeded {
                capacity: 100,
                required: 110
            }
        ));
        // Replacement that shrinks usage is allowed.
        s.put("b", "a", blob(10)).unwrap();
        s.put("b", "b", blob(50)).unwrap();
        assert_eq!(s.stats().bytes_stored, 60);
    }

    #[test]
    fn buckets_are_isolated() {
        let s = ObjectStore::new();
        s.put("snapshots", "k", blob(1)).unwrap();
        assert_eq!(s.get("other", "k").unwrap_err(), StoreError::NotFound);
        assert_eq!(s.list("snapshots"), vec!["k".to_string()]);
        assert!(s.list("other").is_empty());
    }

    #[test]
    fn list_is_sorted() {
        let s = ObjectStore::new();
        for k in ["zeta", "alpha", "mid"] {
            s.put("b", k, blob(1)).unwrap();
        }
        assert_eq!(s.list("b"), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn clones_share_state() {
        let s = ObjectStore::new();
        let t = s.clone();
        s.put("b", "k", blob(3)).unwrap();
        assert_eq!(t.stats().objects, 1);
        assert!(t.get("b", "k").is_ok());
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
        let s = ObjectStore::new();
        let payload = blob(100);
        let (h, p, t) = chunked(1, &payload);
        let meta = s.put_chunked("b", "k", h.clone(), p, t.clone()).unwrap();
        assert_eq!(meta.size, 16 + 100 + 8);
        // Contiguous read reassembles.
        let whole = s.get("b", "k").unwrap();
        assert_eq!(whole.len(), 124);
        assert_eq!(&whole[..16], &h[..]);
        assert_eq!(&whole[16..116], &payload[..]);
        assert_eq!(&whole[116..], &t[..]);
        // Chunked read is exact.
        let chunks = s.get_chunks("b", "k").unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1], payload);
        assert_eq!(s.head("b", "k").unwrap().size, 124);
    }

    #[test]
    fn twin_payloads_are_stored_once() {
        let s = ObjectStore::new();
        let payload = blob(1000);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        s.put_chunked("b", "twin-a", h1, p1, t1).unwrap();
        let before = s.stats();
        assert_eq!(before.bytes_stored, 24 + 1000);
        s.put_chunked("b", "twin-b", h2, p2, t2).unwrap();
        let after = s.stats();
        // Second twin adds only head+tail physically.
        assert_eq!(after.bytes_stored, before.bytes_stored + 24);
        assert_eq!(after.bytes_deduped, 1000);
        assert_eq!(after.bytes_uploaded, before.bytes_uploaded + 24);
        assert_eq!(after.objects, 2);
        assert_eq!(s.blob_count(), 1);
    }

    #[test]
    fn twin_eviction_preserves_the_survivor() {
        // The §7.2 guard: deleting one twin must not free the shared blob.
        let s = ObjectStore::new();
        let payload = blob(500);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        s.put_chunked("b", "twin-a", h1, p1, t1).unwrap();
        s.put_chunked("b", "twin-b", h2, p2, t2).unwrap();
        s.delete("b", "twin-a").unwrap();
        assert_eq!(s.blob_count(), 1, "blob must survive the first eviction");
        let chunks = s.get_chunks("b", "twin-b").unwrap();
        assert_eq!(chunks[1], payload);
        // Last reference gone: blob is freed, storage returns to zero.
        s.delete("b", "twin-b").unwrap();
        assert_eq!(s.blob_count(), 0);
        assert_eq!(s.stats().bytes_stored, 0);
    }

    #[test]
    fn replacing_chunked_object_releases_blob_reference() {
        let s = ObjectStore::new();
        let payload = blob(300);
        let (h, p, t) = chunked(1, &payload);
        s.put_chunked("b", "k", h, p, t).unwrap();
        // Replace with a plain object: the orphaned blob must be freed.
        s.put("b", "k", blob(10)).unwrap();
        assert_eq!(s.blob_count(), 0);
        assert_eq!(s.stats().bytes_stored, 10);
        assert_eq!(s.stats().objects, 1);
    }

    #[test]
    fn chunked_capacity_counts_physical_bytes() {
        let s = ObjectStore::with_capacity(1100);
        let payload = blob(1000);
        let (h1, p1, t1) = chunked(1, &payload);
        s.put_chunked("b", "a", h1, p1, t1).unwrap();
        // 1024 resident; a twin fits because only head+tail (24 B) are new.
        let (h2, p2, t2) = chunked(2, &payload);
        s.put_chunked("b", "b", h2, p2, t2).unwrap();
        assert_eq!(s.stats().bytes_stored, 1048);
        // A distinct payload of the same size does not fit.
        let other = Bytes::from(vec![0x11u8; 1000]);
        let (h3, p3, t3) = chunked(3, &other);
        assert!(matches!(
            s.put_chunked("b", "c", h3, p3, t3),
            Err(StoreError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn dedup_spans_buckets_and_plain_objects_do_not_dedup() {
        let s = ObjectStore::new();
        let payload = blob(200);
        let (h1, p1, t1) = chunked(1, &payload);
        let (h2, p2, t2) = chunked(2, &payload);
        s.put_chunked("x", "k", h1, p1, t1).unwrap();
        s.put_chunked("y", "k", h2, p2, t2).unwrap();
        assert_eq!(s.blob_count(), 1);
        // Plain puts of identical bytes still store twice (opaque blobs).
        s.put("z", "a", payload.clone()).unwrap();
        s.put("z", "b", payload.clone()).unwrap();
        assert_eq!(s.stats().bytes_stored, 24 * 2 + 200 + 200 + 200);
    }
}
