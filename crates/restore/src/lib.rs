//! Page-granular snapshot restore: the REAP subsystem.
//!
//! The paper treats restore as a monolithic blob load priced by
//! `CheckpointCostModel`. REAP ("Benchmarking, Analysis, and Optimization
//! of Serverless Function Snapshots", Ustiugov et al., ASPLOS '21) showed
//! that a function touches only a small, stable working set of its
//! snapshot, and that *recording* that set once, then *prefetching* it in
//! one batched transfer on later restores, cuts restore latency several
//! fold. This crate models that mechanism on the simulator's virtual
//! clock:
//!
//! - [`PageMap`] slices a snapshot payload into fixed-size pages with
//!   deterministic content addresses. It is a pure function of the
//!   snapshot, so it is recomputed wherever it is needed and never
//!   stored; the orchestrator decides which pages can be fetched (all of
//!   them while the snapshot is pooled, none after it is evicted);
//! - [`WorkingSetManifest`] is the recorded set of touched pages, with a
//!   versioned binary codec — the one paged object the orchestrator
//!   keeps in its object store, one per recorded snapshot;
//! - [`LazyImage`] is a restored-but-unmapped snapshot image that tracks
//!   residency and first-touch faults per request;
//! - [`RestoreStrategy`] selects eager / lazy / record-prefetch restore,
//!   and [`RestoreInfo`] carries per-restore stats up through `RunResult`;
//! - [`FaultCostModel`] prices page mapping, fault service, and batched
//!   prefetch on the virtual clock.
//!
//! Everything here is deterministic: page maps and manifests iterate in
//! ascending page order, and no RNG is consumed anywhere in the crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod image;
pub mod manifest;
pub mod page;
pub mod strategy;

pub use fault::FaultCostModel;
pub use image::LazyImage;
pub use manifest::{ManifestError, WorkingSetManifest, MANIFEST_MAGIC, MANIFEST_VERSION};
pub use page::{PageMap, DEFAULT_PAGE_SIZE};
pub use strategy::{RestoreInfo, RestoreStrategy};
