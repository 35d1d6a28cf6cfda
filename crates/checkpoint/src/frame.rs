//! The snapshot frame codec: the one format the Checkpoint Engine hands the
//! Object Store and the restore path reads back.
//!
//! Every snapshot is stored as a frame of three chunks — header, payload,
//! trailer — so the (large) payload never has to be copied into a
//! contiguous transport buffer, and the store can content-address it for
//! dedup. A frame holds either a full snapshot (a chain root) or a delta
//! against its parent; both headers open with the same envelope and
//! prelude:
//!
//! ```text
//! header  : envelope  length-prefixed magic, version
//!           prelude   id, function, request#, runtime, nominal size,
//!                     payload hash (Fnv1aWide)
//!           full      payload length
//!           delta     parent id, parent payload hash, page size,
//!                     composed length, dirty nominal bytes,
//!                     page table [(page index u32, length u32)]
//! payload : full      the serialized process state, raw
//!           delta     the changed pages, concatenated in table order
//! trailer : u64 LE — Fnv1aWide checksum of the header bytes only
//! ```
//!
//! Payload integrity lives in the header's payload hash, computed once
//! when the snapshot is built and reused for its id and as the store's
//! content address, so encoding a frame touches only the ~100-byte header.
//! A delta's payload hash is that of the *composed* payload, checked by
//! [`DeltaFrame::compose`]. The working-set manifest of `pronghorn-restore`
//! is a single-chunk object that opens with the same envelope
//! ([`put_envelope`], [`take_envelope`]).

use crate::codec::{CodecError, Decoder, Encoder};
use crate::delta::{DeltaFrame, SnapshotDelta};
use crate::snapshot::{Snapshot, SnapshotId, SnapshotMeta};
use bytes::Bytes;
use pronghorn_sim::hash::fnv1a_wide;
use std::fmt;

/// Magic opening every full-snapshot frame.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PRSNAP\x00\x01";

/// Current full-snapshot frame version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Magic opening every delta frame.
pub const DELTA_MAGIC: &[u8; 8] = b"PRDELT\x00\x01";

/// Current delta frame version.
pub const DELTA_VERSION: u16 = 1;

/// A frame as its transport chunks, in wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Envelope, prelude and the frame kind's own fields.
    pub header: Bytes,
    /// A full snapshot's payload (sharing the snapshot's buffer), or a
    /// delta's changed pages.
    pub payload: Bytes,
    /// Eight bytes: little-endian `Fnv1aWide` checksum of `header`.
    pub trailer: Bytes,
}

/// What a parsed frame holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stored {
    /// A full snapshot: a chain root.
    Full(Snapshot),
    /// A delta, to compose onto its parent's payload.
    Delta(DeltaFrame),
}

/// Errors produced while parsing a frame or manifest, or composing a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes do not open the buffer.
    BadMagic,
    /// A newer (or corrupt) format version.
    UnsupportedVersion(u16),
    /// A header checksum, payload hash or parent hash does not match the
    /// content.
    ChecksumMismatch {
        /// Value stored in the frame.
        expected: u64,
        /// Value computed from the content.
        actual: u64,
    },
    /// A delta page lies outside the composed payload, or a manifest page
    /// is not above the page before it.
    PageOutOfBounds {
        /// Offending page index.
        index: u32,
    },
    /// Structural decode failure.
    Codec(CodecError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch ({expected:#x} != {actual:#x})")
            }
            FrameError::PageOutOfBounds { index } => write!(f, "page {index} out of bounds"),
            FrameError::Codec(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> Self {
        FrameError::Codec(e)
    }
}

/// Writes the envelope every stored object opens with: `magic`,
/// length-prefixed, then `version`.
pub fn put_envelope(enc: &mut Encoder, magic: &[u8; 8], version: u16) {
    enc.put_bytes(magic);
    enc.put_u16(version);
}

/// Reads an envelope written by [`put_envelope`], accepting only `magic`
/// at `version`.
pub fn take_envelope(
    dec: &mut Decoder<'_>,
    magic: &[u8; 8],
    version: u16,
) -> Result<(), FrameError> {
    if dec.take_bytes()? != magic {
        return Err(FrameError::BadMagic);
    }
    match dec.take_u16()? {
        v if v == version => Ok(()),
        v => Err(FrameError::UnsupportedVersion(v)),
    }
}

/// Fails with [`FrameError::ChecksumMismatch`] unless `bytes` hash to
/// `expected`.
pub(crate) fn check_hash(expected: u64, bytes: &[u8]) -> Result<(), FrameError> {
    let actual = fnv1a_wide(bytes);
    if actual != expected {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

/// Clears `scratch` and writes the envelope and the prelude of `snapshot`.
fn put_prelude(scratch: &mut Encoder, magic: &[u8; 8], version: u16, snapshot: &Snapshot) {
    scratch.clear();
    put_envelope(scratch, magic, version);
    scratch.put_u64(snapshot.id.0);
    scratch.put_str(&snapshot.meta.function);
    scratch.put_u32(snapshot.meta.request_number);
    scratch.put_str(&snapshot.meta.runtime);
    scratch.put_u64(snapshot.nominal_size);
    scratch.put_u64(snapshot.payload_hash());
}

/// The snapshot fields of a header's prelude.
struct Prelude {
    id: SnapshotId,
    meta: SnapshotMeta,
    nominal_size: u64,
    payload_hash: u64,
}

fn take_prelude(
    dec: &mut Decoder<'_>,
    magic: &[u8; 8],
    version: u16,
) -> Result<Prelude, FrameError> {
    take_envelope(dec, magic, version)?;
    Ok(Prelude {
        id: SnapshotId(dec.take_u64()?),
        meta: SnapshotMeta {
            function: dec.take_str()?.to_string(),
            request_number: dec.take_u32()?,
            runtime: dec.take_str()?.to_string(),
        },
        nominal_size: dec.take_u64()?,
        payload_hash: dec.take_u64()?,
    })
}

/// Closes the header in `scratch` with its checksum trailer around
/// `payload`.
fn seal(scratch: &mut Encoder, payload: Bytes) -> Frame {
    let trailer = scratch.checksum();
    Frame {
        header: Bytes::copy_from_slice(scratch.as_bytes()),
        payload,
        trailer: Bytes::from(trailer.to_le_bytes().to_vec()),
    }
}

impl Snapshot {
    /// Frames the snapshot as a full chain root. The payload chunk shares
    /// the snapshot's buffer; `scratch` holds the header, so a long-lived
    /// caller allocates nothing per frame beyond the two small chunks. The
    /// scratch is cleared first; its prior contents do not leak into the
    /// frame.
    pub fn to_frame_with(&self, scratch: &mut Encoder) -> Frame {
        put_prelude(scratch, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self);
        scratch.put_u64(self.payload().len() as u64);
        seal(scratch, self.payload().clone())
    }
}

impl SnapshotDelta {
    /// Frames this delta of `snapshot` (the composed child), reusing
    /// `scratch` for the header. The changed pages are concatenated into
    /// one payload chunk: contiguous bytes content-address cleanly in the
    /// store's dedup layer.
    pub fn to_frame_with(&self, snapshot: &Snapshot, scratch: &mut Encoder) -> Frame {
        put_prelude(scratch, DELTA_MAGIC, DELTA_VERSION, snapshot);
        scratch.put_u64(self.parent.0);
        scratch.put_u64(self.parent_payload_hash);
        scratch.put_u64(self.page_size);
        scratch.put_u64(self.total_len);
        scratch.put_u64(self.dirty_nominal_bytes);
        scratch.put_seq(&self.pages, |enc, (idx, bytes)| {
            enc.put_u32(*idx);
            enc.put_u32(bytes.len() as u32);
        });
        let mut payload = Vec::with_capacity(self.payload_bytes() as usize);
        for (_, bytes) in &self.pages {
            payload.extend_from_slice(bytes);
        }
        seal(scratch, Bytes::from(payload))
    }
}

impl Frame {
    /// Parses a stored frame into the full snapshot or delta it holds,
    /// checking the trailer, the envelope, that the header is consumed
    /// exactly, and the payload chunk against the header: a full
    /// snapshot's length and hash, a delta's page table. Payload slices
    /// share the payload chunk's buffer.
    pub fn parse(&self) -> Result<Stored, FrameError> {
        let mut trailer = Decoder::new(&self.trailer);
        let checksum = trailer.take_u64()?;
        trailer.finish()?;
        check_hash(checksum, &self.header)?;
        let mut dec = Decoder::new(&self.header);
        if dec.clone().take_bytes()? == DELTA_MAGIC {
            let prelude = take_prelude(&mut dec, DELTA_MAGIC, DELTA_VERSION)?;
            return self.parse_delta(dec, prelude).map(Stored::Delta);
        }
        let p = take_prelude(&mut dec, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let payload_len = dec.take_u64()?;
        dec.finish()?;
        if payload_len != self.payload.len() as u64 {
            return Err(FrameError::Codec(CodecError::LengthOutOfBounds {
                declared: payload_len,
                remaining: self.payload.len(),
            }));
        }
        check_hash(p.payload_hash, &self.payload)?;
        Ok(Stored::Full(Snapshot::from_verified_parts(
            p.id,
            p.meta,
            self.payload.clone(),
            p.nominal_size,
            p.payload_hash,
        )))
    }

    fn parse_delta(&self, mut dec: Decoder<'_>, p: Prelude) -> Result<DeltaFrame, FrameError> {
        let parent = SnapshotId(dec.take_u64()?);
        let parent_payload_hash = dec.take_u64()?;
        let page_size = dec.take_u64()?;
        let total_len = dec.take_u64()?;
        let dirty_nominal_bytes = dec.take_u64()?;
        let entries = dec.take_len(8)?;
        let mut pages = Vec::with_capacity(entries);
        let mut offset = 0usize;
        for _ in 0..entries {
            let index = dec.take_u32()?;
            let len = dec.take_u32()? as usize;
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= self.payload.len())
                .ok_or(FrameError::PageOutOfBounds { index })?;
            pages.push((index, self.payload.slice(offset..end)));
            offset = end;
        }
        dec.finish()?;
        if offset != self.payload.len() {
            return Err(FrameError::Codec(CodecError::TrailingBytes {
                remaining: self.payload.len() - offset,
            }));
        }
        Ok(DeltaFrame {
            id: p.id,
            meta: p.meta,
            nominal_size: p.nominal_size,
            payload_hash: p.payload_hash,
            delta: SnapshotDelta {
                parent,
                parent_payload_hash,
                page_size,
                total_len,
                pages,
                dirty_nominal_bytes,
            },
        })
    }
}
