//! Delta snapshots: page-level incremental checkpoints.
//!
//! REAP-style analyses (Ustiugov et al.) observe that successive snapshots
//! of one function overlap overwhelmingly — the runtime profile and
//! compiled-method metadata are a static prefix of the encoded state, and
//! only per-request counters, the compile queue, and freshly-promoted
//! methods mutate between checkpoints. A delta snapshot exploits that:
//! instead of persisting the whole payload again, the engine diffs the
//! child payload page-by-page against the parent it was restored from and
//! persists only the changed pages plus a parent reference. Full snapshots
//! are the chain roots; restore composes the chain back into a byte-exact
//! full payload.
//!
//! Two page granularities are in play, mirroring the two layers the
//! simulator models:
//!
//! - **physical**: the encoded payload (kilobytes) is diffed at
//!   [`PAYLOAD_DIFF_PAGE_SIZE`] so the store's content-addressed blobs
//!   shrink to the changed pages — this is what [`apply`] recomposes and
//!   what the byte-identity proptests pin;
//! - **nominal**: the modeled process image (megabytes, Table 4) dirties
//!   only the pages its requests touched since the parent; the caller
//!   folds the runtime's deterministic page-access traces into a dirty
//!   set and [`dirty_nominal_bytes`] converts it into the nominal bytes a
//!   real incremental engine would dump — the number that drives the
//!   checkpoint cost sample and the Table 5 transfer/storage accounting.
//!
//! A delta is stored as a [`crate::frame`] whose header shares the full
//! snapshot's envelope and prelude, so the orchestrator's chunked upload
//! path and the store's dedup work unchanged.

use crate::codec::CodecError;
use crate::frame::{check_hash, FrameError};
use crate::snapshot::{Snapshot, SnapshotId, SnapshotMeta};
use bytes::Bytes;
use std::collections::BTreeSet;

/// Physical diff granularity over the encoded payload. The encoded state
/// is a static prefix (profile + method profiles) followed by a mutable
/// tail (per-method counters, queue); 1 KiB pages resolve that boundary
/// well for payloads in the kilobyte-to-megabyte range.
pub const PAYLOAD_DIFF_PAGE_SIZE: u64 = 1024;

/// Whether a worker's checkpoints may produce delta snapshots, and how
/// deep a parent chain may grow before it is consolidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaPolicy {
    /// Every checkpoint persists a full snapshot (the pre-delta behavior,
    /// pinned byte-identical by the `full_invariance` golden).
    #[default]
    Disabled,
    /// Checkpoints of restored workers persist page deltas against the
    /// snapshot they were restored from, until the chain reaches
    /// `max_depth` deltas — the next checkpoint then consolidates into a
    /// fresh full root.
    Enabled {
        /// Maximum delta-chain depth K before consolidation (≥ 1).
        max_depth: u32,
    },
}

impl DeltaPolicy {
    /// Whether delta checkpointing is on.
    pub fn enabled(&self) -> bool {
        matches!(self, DeltaPolicy::Enabled { .. })
    }

    /// The consolidation depth K, when enabled.
    pub fn max_depth(&self) -> Option<u32> {
        match self {
            DeltaPolicy::Disabled => None,
            DeltaPolicy::Enabled { max_depth } => Some((*max_depth).max(1)),
        }
    }
}

/// Everything the engine needs to cut a delta instead of a full snapshot:
/// the parent snapshot (its id is the chain reference, its payload the
/// diff base, its payload hash the compose-time check) plus the modeled
/// dirty nominal bytes accumulated since that parent was restored.
#[derive(Debug, Clone, Copy)]
pub struct DeltaBase<'a> {
    /// The snapshot the worker was restored from.
    pub parent: &'a Snapshot,
    /// Modeled nominal bytes dirtied since the parent: the page-access
    /// trace union over the served requests, in image-page bytes.
    pub dirty_nominal_bytes: u64,
}

/// What a checkpoint produced alongside the in-memory [`Snapshot`]: a
/// chain root, or a delta record to persist instead of the full payload.
#[derive(Debug, Clone)]
pub enum CheckpointOutcome {
    /// The snapshot persists as a full chain root.
    Full,
    /// The snapshot persists as `delta` against its parent.
    Delta(SnapshotDelta),
}

/// A page-level delta of one snapshot payload against its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// The parent snapshot the delta applies on top of.
    pub parent: SnapshotId,
    /// Content address of the parent payload the diff was computed from.
    pub parent_payload_hash: u64,
    /// Physical diff page size ([`PAYLOAD_DIFF_PAGE_SIZE`]).
    pub page_size: u64,
    /// Composed (child) payload length in bytes.
    pub total_len: u64,
    /// Changed pages, ascending by page index; each slice shares the
    /// child payload's buffer.
    pub pages: Vec<(u32, Bytes)>,
    /// Modeled nominal bytes this delta represents (see [`DeltaBase`]).
    pub dirty_nominal_bytes: u64,
}

/// A parsed delta frame: the child snapshot's identity plus the delta
/// record, ready for [`DeltaFrame::compose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaFrame {
    /// Child snapshot id (what the pool references).
    pub id: SnapshotId,
    /// Child snapshot metadata.
    pub meta: SnapshotMeta,
    /// Child nominal image size.
    pub nominal_size: u64,
    /// Content address of the *composed* child payload.
    pub payload_hash: u64,
    /// The delta record.
    pub delta: SnapshotDelta,
}

/// Diffs `child` against `parent` over the child's page grid, returning
/// the changed pages ascending by index. A page is changed when the
/// parent has no bytes for it (the payload grew) or the bytes differ;
/// length changes surface as changed boundary pages plus the frame's
/// `total_len`.
pub fn diff_payload(parent: &[u8], child: &Bytes, page_size: u64) -> Vec<(u32, Bytes)> {
    let page_size = page_size.max(1) as usize;
    let mut pages = Vec::new();
    let count = child.len().div_ceil(page_size);
    for idx in 0..count {
        let start = idx * page_size;
        let end = (start + page_size).min(child.len());
        let child_page = &child[start..end];
        let parent_page = if start < parent.len() {
            &parent[start..end.min(parent.len())]
        } else {
            &[][..]
        };
        if child_page != parent_page {
            pages.push((idx as u32, child.slice(start..end)));
        }
    }
    pages
}

/// Applies `delta` on top of `parent`, returning the composed child
/// payload. Inverse of [`diff_payload`]: for any parent/child pair,
/// `apply(parent, diff(parent, child)) == child` byte-for-byte. Every
/// composed byte past the parent's end comes from a page, which bounds
/// the composed length before anything is allocated.
pub fn apply(parent: &[u8], delta: &SnapshotDelta) -> Result<Bytes, FrameError> {
    let bound = parent.len() as u64 + delta.payload_bytes();
    if delta.total_len > bound {
        return Err(FrameError::Codec(CodecError::LengthOutOfBounds {
            declared: delta.total_len,
            remaining: bound as usize,
        }));
    }
    let total = delta.total_len as usize;
    let mut out = vec![0u8; total];
    let shared = parent.len().min(total);
    out[..shared].copy_from_slice(&parent[..shared]);
    let page_size = delta.page_size.max(1) as usize;
    for (idx, bytes) in &delta.pages {
        let start = (*idx as usize)
            .checked_mul(page_size)
            .filter(|&start| start <= total)
            .ok_or(FrameError::PageOutOfBounds { index: *idx })?;
        // Every page except a partial tail must fill its slot exactly.
        if bytes.len() != page_size.min(total - start) {
            return Err(FrameError::PageOutOfBounds { index: *idx });
        }
        out[start..start + bytes.len()].copy_from_slice(bytes);
    }
    Ok(Bytes::from(out))
}

impl SnapshotDelta {
    /// Total physical bytes of the changed pages (what the store blob
    /// holds; the nominal accounting uses `dirty_nominal_bytes`).
    pub fn payload_bytes(&self) -> u64 {
        self.pages.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

impl DeltaFrame {
    /// Composes this frame on top of `parent`, checking the parent's
    /// content address and the composed payload's hash before rebuilding
    /// the child [`Snapshot`]. The restore path's only way to materialize
    /// a delta-stored snapshot. `parent` was verified when it was parsed
    /// or composed, so its cached payload hash is compared, not
    /// recomputed: a K-link chain hashes K + 1 payloads.
    pub fn compose(&self, parent: &Snapshot) -> Result<Snapshot, FrameError> {
        let (expected, actual) = (self.delta.parent_payload_hash, parent.payload_hash());
        if actual != expected {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        let payload = apply(parent.payload(), &self.delta)?;
        check_hash(self.payload_hash, &payload)?;
        Ok(Snapshot::from_verified_parts(
            self.id,
            self.meta.clone(),
            payload,
            self.nominal_size,
            self.payload_hash,
        ))
    }
}

/// Modeled nominal bytes a delta checkpoint dumps: the image pages in
/// `dirty` (indices on the shared `[i*page_size, (i+1)*page_size)` grid)
/// plus every page the image grew past `parent_pages` — growth is new
/// state the parent cannot supply. Pure arithmetic mirror of
/// `PageMap::page_len`, so the result matches the published page maps.
pub fn dirty_nominal_bytes(
    dirty: &BTreeSet<u32>,
    parent_pages: u32,
    total_bytes: u64,
    page_size: u64,
) -> u64 {
    let page_size = page_size.max(1);
    let count = total_bytes.div_ceil(page_size).max(1);
    let count_u32 = count.min(u64::from(u32::MAX)) as u32;
    let page_len = |i: u32| -> u64 {
        let i = u64::from(i);
        if i + 1 < count {
            page_size
        } else if i + 1 == count {
            total_bytes - (count - 1) * page_size
        } else {
            0
        }
    };
    let mut total = 0u64;
    for i in 0..count_u32 {
        if i >= parent_pages || dirty.contains(&i) {
            total += page_len(i);
        }
    }
    total.min(total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoder;
    use crate::frame::Stored;
    use pronghorn_sim::hash::fnv1a_wide;

    fn snap(payload: &[u8]) -> Snapshot {
        Snapshot::with_nonce(
            SnapshotMeta {
                function: "f".into(),
                request_number: 3,
                runtime: "jvm".into(),
            },
            Bytes::copy_from_slice(payload),
            12 << 20,
            7,
        )
    }

    fn delta_for(parent: &[u8], child: &Snapshot, page_size: u64) -> SnapshotDelta {
        let pages = diff_payload(parent, child.payload(), page_size);
        SnapshotDelta {
            parent: SnapshotId(1),
            parent_payload_hash: fnv1a_wide(parent),
            page_size,
            total_len: child.payload().len() as u64,
            pages,
            dirty_nominal_bytes: 1024,
        }
    }

    #[test]
    fn diff_apply_round_trips() {
        let parent: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let mut child = parent.clone();
        child[100] ^= 0xff; // page 0
        child[4090] ^= 0x0f; // page 3
        let child = snap(&child);
        let delta = delta_for(&parent, &child, 1024);
        assert_eq!(
            delta.pages.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 3]
        );
        let composed = apply(&parent, &delta).unwrap();
        assert_eq!(composed, *child.payload());
    }

    #[test]
    fn identical_payloads_diff_to_nothing() {
        let payload: Vec<u8> = (0..3000).map(|i| (i % 7) as u8).collect();
        let child = snap(&payload);
        let delta = delta_for(&payload, &child, 1024);
        assert!(delta.pages.is_empty());
        assert_eq!(apply(&payload, &delta).unwrap(), *child.payload());
        assert_eq!(delta.payload_bytes(), 0);
    }

    #[test]
    fn growth_marks_new_pages_changed() {
        let parent: Vec<u8> = vec![1; 2048];
        let mut child_bytes = parent.clone();
        child_bytes.extend_from_slice(&[2; 1500]);
        let child = snap(&child_bytes);
        let delta = delta_for(&parent, &child, 1024);
        // Pages 2 and 3 are past the parent's end.
        assert_eq!(
            delta.pages.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(apply(&parent, &delta).unwrap(), *child.payload());
    }

    #[test]
    fn shrink_composes_exactly() {
        let parent: Vec<u8> = (0..4000).map(|i| (i % 13) as u8).collect();
        let child = snap(&parent[..2500]);
        let delta = delta_for(&parent, &child, 1024);
        assert_eq!(apply(&parent, &delta).unwrap(), *child.payload());
    }

    /// Frames `delta` of `child` and parses it back.
    fn round_trip(delta: &SnapshotDelta, child: &Snapshot) -> DeltaFrame {
        match delta.to_frame_with(child, &mut Encoder::new()).parse() {
            Ok(Stored::Delta(frame)) => frame,
            other => panic!("a delta frame parsed as {other:?}"),
        }
    }

    #[test]
    fn frame_round_trips_and_composes() {
        let parent: Vec<u8> = (0..5000).map(|i| (i % 97) as u8).collect();
        let mut child_bytes = parent.clone();
        child_bytes[2048] ^= 0xaa;
        let child = snap(&child_bytes);
        let delta = delta_for(&parent, &child, 1024);
        let parsed = round_trip(&delta, &child);
        assert_eq!(parsed.id, child.id);
        assert_eq!(parsed.meta, child.meta);
        assert_eq!(parsed.delta, delta);
        let composed = parsed.compose(&snap(&parent)).unwrap();
        assert_eq!(composed, child);
        assert_eq!(composed.payload_hash(), child.payload_hash());
    }

    #[test]
    fn full_frame_head_is_not_a_delta_frame() {
        let child = snap(b"some-state");
        let full = child.to_frame_with(&mut Encoder::new());
        assert_eq!(full.parse(), Ok(Stored::Full(child)));
    }

    #[test]
    fn compose_rejects_wrong_parent() {
        let parent: Vec<u8> = vec![1; 3000];
        let mut child_bytes = parent.clone();
        child_bytes[10] = 9;
        let child = snap(&child_bytes);
        let parsed = round_trip(&delta_for(&parent, &child, 1024), &child);
        let wrong = snap(&[2u8; 3000]);
        assert!(matches!(
            parsed.compose(&wrong),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let parent: Vec<u8> = vec![5; 2000];
        let mut child_bytes = parent.clone();
        child_bytes[1500] = 0;
        let child = snap(&child_bytes);
        let frame = delta_for(&parent, &child, 1024).to_frame_with(&child, &mut Encoder::new());
        for i in 0..frame.header.len() {
            let mut bad = frame.header.to_vec();
            bad[i] ^= 0xff;
            let bad = crate::frame::Frame {
                header: Bytes::from(bad),
                ..frame.clone()
            };
            assert!(bad.parse().is_err(), "header byte {i} accepted");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocating() {
        let parent = vec![3u8; 2000];
        let mut child_bytes = parent.clone();
        child_bytes[5] = 4;
        let child = snap(&child_bytes);
        let delta = delta_for(&parent, &child, 1024);
        // A composed length no page can fill.
        let huge = SnapshotDelta {
            total_len: u64::MAX,
            ..delta.clone()
        };
        assert!(matches!(
            apply(&parent, &huge),
            Err(FrameError::Codec(CodecError::LengthOutOfBounds { .. }))
        ));
        // A page index whose offset overflows.
        let far = SnapshotDelta {
            page_size: u64::MAX,
            pages: vec![(2, delta.pages[0].1.clone())],
            ..delta
        };
        assert_eq!(
            apply(&parent, &far),
            Err(FrameError::PageOutOfBounds { index: 2 })
        );
    }

    #[test]
    fn dirty_nominal_counts_dirty_and_grown_pages() {
        let ps = 256 * 1024;
        let total = 12 * ps + 100; // 13 pages, partial tail
        let dirty: BTreeSet<u32> = [0, 5].into_iter().collect();
        // Parent covered all 13 pages: only the dirty two count.
        assert_eq!(dirty_nominal_bytes(&dirty, 13, total, ps), 2 * ps);
        // Parent covered 11: pages 11 and 12 (partial) are growth.
        assert_eq!(
            dirty_nominal_bytes(&dirty, 11, total, ps),
            2 * ps + ps + 100
        );
        // Everything dirty caps at the image size.
        let all: BTreeSet<u32> = (0..13).collect();
        assert_eq!(dirty_nominal_bytes(&all, 13, total, ps), total);
    }

    #[test]
    fn delta_policy_defaults_off() {
        assert_eq!(DeltaPolicy::default(), DeltaPolicy::Disabled);
        assert!(!DeltaPolicy::Disabled.enabled());
        assert_eq!(DeltaPolicy::Enabled { max_depth: 4 }.max_depth(), Some(4));
        // A zero depth would make every delta an instant consolidation
        // loop; clamp to one.
        assert_eq!(DeltaPolicy::Enabled { max_depth: 0 }.max_depth(), Some(1));
    }
}
