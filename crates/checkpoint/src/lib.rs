//! Checkpoint engine — the paper's CRIU stand-in.
//!
//! Pronghorn "employed CRIU as a stand-in for any Checkpoint Engine due to
//! its maturity" while remaining "agnostic to the choice of Checkpoint
//! Engine" (§4). This crate provides that pluggable engine layer for the
//! reproduction:
//!
//! - [`codec`]: a from-scratch little-endian binary codec (no serde-format
//!   dependency) with explicit decode errors;
//! - [`Snapshot`]: the serialized process state plus the *nominal*
//!   process-image size used for cost accounting (a real CRIU image is the
//!   process memory, tens of megabytes per Table 4; the simulated runtime
//!   state serializes to kilobytes, so sizes are modeled, not padded);
//! - [`frame`]: the one stored form of a snapshot — a versioned,
//!   checksummed [`Frame`] of header, payload and trailer chunks holding a
//!   full snapshot or a [`delta`] against its parent, parsed back by
//!   [`Frame::parse`], with every format failure a [`FrameError`];
//! - [`Checkpointable`]: the contract a process must satisfy to be
//!   checkpointed and restored;
//! - [`SimCriuEngine`]: an engine whose checkpoint/restore *times* follow a
//!   `base + per-MB + jitter` model fitted to Table 4 (checkpoint 60–105 ms,
//!   restore 30–80 ms for 10–64 MB images).
//!
//! # Examples
//!
//! ```
//! use pronghorn_checkpoint::codec::{Decoder, Encoder};
//!
//! let mut enc = Encoder::new();
//! enc.put_u32(7);
//! enc.put_str("hot");
//! let bytes = enc.into_bytes();
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.take_u32().unwrap(), 7);
//! assert_eq!(dec.take_str().unwrap(), "hot");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod cost;
pub mod delta;
pub mod engine;
pub mod frame;
pub mod snapshot;
pub mod stats;

pub use codec::{CodecError, Decoder, Encoder};
pub use cost::CheckpointCostModel;
pub use delta::{
    CheckpointOutcome, DeltaBase, DeltaFrame, DeltaPolicy, SnapshotDelta, PAYLOAD_DIFF_PAGE_SIZE,
};
pub use engine::{Checkpointable, SimCriuEngine};
pub use frame::{Frame, FrameError, Stored};
pub use snapshot::{Snapshot, SnapshotId, SnapshotMeta};
pub use stats::CodecStats;
