//! Content-addressed object store — the paper's MinIO stand-in.
//!
//! Pronghorn keeps its snapshot pool in "a global Object Store ...
//! implemented with MinIO" (§3.1, §4): each worker uploads compressed
//! snapshots after a checkpoint and downloads the selected snapshot before
//! a restore. For the cost analysis (Table 5), the paper tracks the
//! *maximum storage used* and the *cumulative network bandwidth* consumed
//! by those transfers.
//!
//! This crate reproduces that component:
//!
//! - [`ObjectStore`]: a bucket/key map of objects, each a head, a
//!   content-deduplicated payload and a tail, with integrity-checked
//!   reads; each deployment's orchestrator owns one;
//! - [`TransferModel`]: latency + bandwidth model converting object sizes
//!   into virtual transfer times;
//! - [`StoreStats`]: peak-storage and cumulative-transfer accounting, the
//!   inputs to Table 5.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use pronghorn_sim::hash::fnv1a_wide;
//! use pronghorn_store::ObjectStore;
//!
//! let mut store = ObjectStore::new();
//! let (head, tail) = (Bytes::from_static(b"hd"), Bytes::from_static(b"tl"));
//! let payload = Bytes::from_static(b"blob");
//! let hash = fnv1a_wide(&payload);
//! store.put_chunked("snapshots", "html/1", head.clone(), payload.clone(), hash, tail.clone());
//! // A twin with the same payload stores and uploads only its head and tail.
//! store.put_chunked("snapshots", "html/2", head, payload, hash, tail);
//! let [_, body, _] = store.get_chunks("snapshots", "html/2").unwrap();
//! assert_eq!(&body[..], b"blob");
//! assert_eq!(store.stats().bytes_uploaded, 8 + 4);
//! assert_eq!(store.stats().bytes_deduped, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod chain;
pub mod compress;
pub mod store;
pub mod tier;
pub mod transfer;

pub use accounting::saturating_accumulate;
pub use chain::{ChainIndex, ChainStats};
pub use store::{ObjectStore, StoreError, StoreStats};
pub use tier::{
    CacheConfig, CacheTier, DownloadPrice, DownloadRequest, ReadPrice, StoragePolicy, StorageStats,
    StorageTier,
};
pub use transfer::TransferModel;
