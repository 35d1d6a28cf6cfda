//! The snapshot container format.
//!
//! A snapshot is what the Checkpoint Engine produces and the Object Store
//! transports: the serialized process state, tagged with the function it
//! belongs to and the request number at which it was taken (the key input
//! to the request-centric policy), framed with a magic number, format
//! version, and FNV-1a integrity hashes so corruption surfaces as a typed
//! error on restore.
//!
//! # Frame layout (version 2)
//!
//! Version 2 is built for a zero-copy fast path. The frame is three
//! independent chunks — header, payload, trailer — so the (large) payload
//! never has to be copied into a contiguous transport buffer:
//!
//! ```text
//! header  : magic, version, id, function, request#, runtime,
//!           nominal size, payload hash (Fnv1aWide), payload length
//! payload : the serialized process state, raw
//! trailer : u64 LE — Fnv1aWide checksum of the header bytes only
//! ```
//!
//! Payload integrity lives in the *header* (`payload hash`), computed once
//! when the snapshot is built and reused for both the snapshot id and the
//! frame — encoding a frame therefore touches only the ~100-byte header,
//! while version 1 re-copied and re-hashed the whole payload on every
//! [`Snapshot::to_bytes`] call.

use crate::codec::{CodecError, Decoder, Encoder};
use bytes::Bytes;
use pronghorn_sim::hash::{fnv1a_wide, Fnv1a};
use std::fmt;

/// Magic bytes opening every serialized snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PRSNAP\x00\x01";

/// Current container format version.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Unique identity of a snapshot within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u64);

impl fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap-{:016x}", self.0)
    }
}

/// Descriptive metadata carried by a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Function the snapshot belongs to, e.g. `"dynamic-html"`.
    pub function: String,
    /// Request number at which the checkpoint was taken — the policy's
    /// coordinate in the `[0, W)` search space.
    pub request_number: u32,
    /// Label of the runtime that produced the state, e.g. `"jvm"`.
    pub runtime: String,
}

/// A checkpointed process image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Snapshot identity (content-derived).
    pub id: SnapshotId,
    /// Descriptive metadata.
    pub meta: SnapshotMeta,
    /// Serialized process state.
    pub payload: Bytes,
    /// Modeled size in bytes of the (compressed) process image a real
    /// checkpoint engine would have produced; drives transfer/storage cost
    /// accounting (Tables 4 and 5).
    pub nominal_size: u64,
    /// Cached `Fnv1aWide` hash of `payload`, computed once at
    /// construction; doubles as the payload's content address for store
    /// dedup and as the integrity hash written into the frame header.
    payload_hash: u64,
}

/// A snapshot serialized as zero-copy transport chunks.
///
/// Produced by [`Snapshot::to_frame`]; the payload chunk shares the
/// snapshot's buffer (no copy). Consumers that need one contiguous buffer
/// call [`EncodedSnapshot::to_bytes`]; consumers that can scatter/gather
/// (the object store, network writers) iterate [`EncodedSnapshot::chunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSnapshot {
    /// Frame header: magic through payload length.
    pub header: Bytes,
    /// The payload, shared with the source snapshot.
    pub payload: Bytes,
    /// Eight bytes: little-endian `Fnv1aWide` checksum of `header`.
    pub trailer: Bytes,
}

impl EncodedSnapshot {
    /// The frame as its three transport chunks, in wire order.
    pub fn chunks(&self) -> [Bytes; 3] {
        [
            self.header.clone(),
            self.payload.clone(),
            self.trailer.clone(),
        ]
    }

    /// Total frame size in bytes.
    pub fn total_len(&self) -> usize {
        self.header.len() + self.payload.len() + self.trailer.len()
    }

    /// Assembles one contiguous transport buffer (copies the payload —
    /// prefer [`Self::chunks`] on hot paths).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.total_len());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.trailer);
        Bytes::from(out)
    }
}

/// Header fields plus payload location, produced by frame parsing.
struct ParsedFrame {
    id: SnapshotId,
    meta: SnapshotMeta,
    nominal_size: u64,
    payload_hash: u64,
    payload_start: usize,
    payload_end: usize,
}

/// Parses the header fields shared by every v2 frame variant, leaving the
/// decoder positioned just past the payload-length field.
fn parse_header_fields(
    dec: &mut Decoder<'_>,
) -> Result<(SnapshotId, SnapshotMeta, u64, u64, u64), SnapshotFormatError> {
    let magic = dec.take_bytes()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotFormatError::BadMagic);
    }
    let version = dec.take_u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotFormatError::UnsupportedVersion(version));
    }
    let id = SnapshotId(dec.take_u64()?);
    let function = dec.take_str()?.to_string();
    let request_number = dec.take_u32()?;
    let runtime = dec.take_str()?.to_string();
    let nominal_size = dec.take_u64()?;
    let payload_hash = dec.take_u64()?;
    let payload_len = dec.take_u64()?;
    Ok((
        id,
        SnapshotMeta {
            function,
            request_number,
            runtime,
        },
        nominal_size,
        payload_hash,
        payload_len,
    ))
}

fn read_trailer(trailer: &[u8]) -> Result<u64, SnapshotFormatError> {
    if trailer.len() != 8 {
        return Err(SnapshotFormatError::Codec(CodecError::UnexpectedEof {
            needed: 8,
            remaining: trailer.len(),
        }));
    }
    let mut arr = [0u8; 8];
    arr.copy_from_slice(trailer);
    Ok(u64::from_le_bytes(arr))
}

fn check_trailer(header: &[u8], trailer: &[u8]) -> Result<(), SnapshotFormatError> {
    let stored = read_trailer(trailer)?;
    let actual = fnv1a_wide(header);
    if stored != actual {
        return Err(SnapshotFormatError::ChecksumMismatch {
            expected: stored,
            actual,
        });
    }
    Ok(())
}

impl Snapshot {
    /// Builds a snapshot, deriving its id from content and metadata.
    ///
    /// Two checkpoints of byte-identical state get the same id; engines
    /// that may checkpoint identical states (identical lineages at the
    /// same request number occur routinely) should use
    /// [`Snapshot::with_nonce`] to keep ids unique.
    pub fn new(meta: SnapshotMeta, payload: Bytes, nominal_size: u64) -> Self {
        Snapshot::with_nonce(meta, payload, nominal_size, 0)
    }

    /// Builds a snapshot whose id additionally mixes in `nonce`.
    ///
    /// The payload is hashed exactly once ([`fnv1a_wide`]); that hash
    /// feeds both the snapshot id and the frame's payload integrity field.
    pub fn with_nonce(meta: SnapshotMeta, payload: Bytes, nominal_size: u64, nonce: u64) -> Self {
        let payload_hash = fnv1a_wide(&payload);
        let mut hasher = Fnv1a::new();
        hasher.write(meta.function.as_bytes());
        hasher.write_u64(u64::from(meta.request_number));
        hasher.write_u64(payload_hash);
        hasher.write_u64(nominal_size);
        hasher.write_u64(nonce);
        Snapshot {
            id: SnapshotId(pronghorn_sim::hash::mix64(hasher.finish())),
            meta,
            payload,
            nominal_size,
            payload_hash,
        }
    }

    /// Rebuilds a snapshot from parts whose payload hash the caller has
    /// already verified against `payload` — the delta compose path, which
    /// checks the composed hash before construction and must reproduce
    /// the original snapshot's id exactly (ids mix in a nonce that is not
    /// persisted, so they cannot be re-derived here).
    pub(crate) fn from_verified_parts(
        id: SnapshotId,
        meta: SnapshotMeta,
        payload: Bytes,
        nominal_size: u64,
        payload_hash: u64,
    ) -> Self {
        debug_assert_eq!(fnv1a_wide(&payload), payload_hash);
        Snapshot {
            id,
            meta,
            payload,
            nominal_size,
            payload_hash,
        }
    }

    /// Content address of the payload: its cached [`fnv1a_wide`] hash.
    ///
    /// Byte-identical payloads (twin lineages checkpointed at the same
    /// request number) share a hash even when their snapshot ids differ
    /// by nonce — the property the store's dedup layer keys on.
    pub fn payload_hash(&self) -> u64 {
        self.payload_hash
    }

    /// Nominal size in (binary) megabytes, as Table 4 reports it.
    pub fn nominal_size_mb(&self) -> f64 {
        self.nominal_size as f64 / (1024.0 * 1024.0)
    }

    /// Serializes the snapshot into zero-copy frame chunks.
    pub fn to_frame(&self) -> EncodedSnapshot {
        let mut enc = Encoder::with_capacity(64);
        self.to_frame_with(&mut enc)
    }

    /// Like [`Self::to_frame`], reusing `scratch` for the header so a
    /// long-lived engine allocates nothing per frame beyond the two small
    /// chunk buffers. The scratch is cleared first; its prior contents do
    /// not leak into the frame.
    pub fn to_frame_with(&self, scratch: &mut Encoder) -> EncodedSnapshot {
        scratch.clear();
        scratch.put_bytes(SNAPSHOT_MAGIC); // length-prefixed magic keeps framing uniform
        scratch.put_u16(SNAPSHOT_VERSION);
        scratch.put_u64(self.id.0);
        scratch.put_str(&self.meta.function);
        scratch.put_u32(self.meta.request_number);
        scratch.put_str(&self.meta.runtime);
        scratch.put_u64(self.nominal_size);
        scratch.put_u64(self.payload_hash);
        scratch.put_u64(self.payload.len() as u64);
        let trailer = scratch.checksum();
        EncodedSnapshot {
            header: Bytes::copy_from_slice(scratch.as_bytes()),
            payload: self.payload.clone(),
            trailer: Bytes::from(trailer.to_le_bytes().to_vec()),
        }
    }

    /// Serializes the snapshot into one contiguous transport buffer.
    ///
    /// Compatibility wrapper over [`Self::to_frame`]; copies the payload.
    pub fn to_bytes(&self) -> Bytes {
        self.to_frame().to_bytes()
    }

    /// Parses a contiguous frame, validating lengths and the header
    /// checksum. Does *not* hash the payload — [`Self::from_parsed`] does
    /// that against the slice the caller materializes.
    fn parse_frame(bytes: &[u8]) -> Result<ParsedFrame, SnapshotFormatError> {
        let mut dec = Decoder::new(bytes);
        let (id, meta, nominal_size, payload_hash, payload_len) = parse_header_fields(&mut dec)?;
        let header_len = bytes.len() - dec.remaining();
        // The frame must hold exactly header + payload + 8-byte trailer.
        let expected_total = (header_len as u64)
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotFormatError::Codec(CodecError::LengthOutOfBounds {
                declared: payload_len,
                remaining: dec.remaining(),
            }))?;
        if (bytes.len() as u64) < expected_total {
            return Err(SnapshotFormatError::Codec(CodecError::UnexpectedEof {
                needed: (expected_total - bytes.len() as u64) as usize,
                remaining: 0,
            }));
        }
        if (bytes.len() as u64) > expected_total {
            return Err(SnapshotFormatError::Codec(CodecError::TrailingBytes {
                remaining: (bytes.len() as u64 - expected_total) as usize,
            }));
        }
        check_trailer(&bytes[..header_len], &bytes[bytes.len() - 8..])?;
        Ok(ParsedFrame {
            id,
            meta,
            nominal_size,
            payload_hash,
            payload_start: header_len,
            payload_end: header_len + payload_len as usize,
        })
    }

    fn from_parsed(parsed: ParsedFrame, payload: Bytes) -> Result<Self, SnapshotFormatError> {
        let actual = fnv1a_wide(&payload);
        if actual != parsed.payload_hash {
            return Err(SnapshotFormatError::ChecksumMismatch {
                expected: parsed.payload_hash,
                actual,
            });
        }
        Ok(Snapshot {
            id: parsed.id,
            meta: parsed.meta,
            payload,
            nominal_size: parsed.nominal_size,
            payload_hash: parsed.payload_hash,
        })
    }

    /// Deserializes and validates a snapshot produced by [`Self::to_bytes`].
    ///
    /// Copies the payload out of `bytes`; when the caller already holds
    /// the frame as [`Bytes`], prefer [`Self::from_shared`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotFormatError> {
        let parsed = Self::parse_frame(bytes)?;
        let payload = Bytes::copy_from_slice(&bytes[parsed.payload_start..parsed.payload_end]);
        Self::from_parsed(parsed, payload)
    }

    /// Zero-copy deserialization: the returned snapshot's payload is a
    /// slice of `bytes` (shared refcount, no allocation or copy).
    pub fn from_shared(bytes: &Bytes) -> Result<Self, SnapshotFormatError> {
        let parsed = Self::parse_frame(bytes)?;
        let payload = bytes.slice(parsed.payload_start..parsed.payload_end);
        Self::from_parsed(parsed, payload)
    }

    /// Reassembles a snapshot from frame chunks as produced by
    /// [`Self::to_frame`] (for example, a store that keeps the payload
    /// blob separately from the header). The payload chunk is shared,
    /// not copied; header and trailer are validated as in
    /// [`Self::from_shared`].
    pub fn from_chunks(
        header: &[u8],
        payload: &Bytes,
        trailer: &[u8],
    ) -> Result<Self, SnapshotFormatError> {
        let mut dec = Decoder::new(header);
        let (id, meta, nominal_size, payload_hash, payload_len) = parse_header_fields(&mut dec)?;
        dec.finish()?;
        if payload_len != payload.len() as u64 {
            return Err(SnapshotFormatError::Codec(CodecError::LengthOutOfBounds {
                declared: payload_len,
                remaining: payload.len(),
            }));
        }
        check_trailer(header, trailer)?;
        Self::from_parsed(
            ParsedFrame {
                id,
                meta,
                nominal_size,
                payload_hash,
                payload_start: 0,
                payload_end: payload.len(),
            },
            payload.clone(),
        )
    }
}

/// Errors produced while parsing snapshot framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotFormatError {
    /// The magic bytes do not open the buffer.
    BadMagic,
    /// A newer (or corrupt) format version.
    UnsupportedVersion(u16),
    /// The trailer checksum or payload hash does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        expected: u64,
        /// Checksum of the actual content.
        actual: u64,
    },
    /// Structural decode failure.
    Codec(CodecError),
}

impl fmt::Display for SnapshotFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotFormatError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotFormatError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotFormatError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch ({expected:#x} != {actual:#x})"
                )
            }
            SnapshotFormatError::Codec(e) => write!(f, "snapshot decode error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotFormatError {}

impl From<CodecError> for SnapshotFormatError {
    fn from(e: CodecError) -> Self {
        SnapshotFormatError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot::new(
            SnapshotMeta {
                function: "dynamic-html".into(),
                request_number: 137,
                runtime: "pypy".into(),
            },
            Bytes::from_static(b"jit-state-bytes"),
            55 * 1024 * 1024,
        )
    }

    /// Hand-builds a v2 frame from parts, with magic/version overridable —
    /// the rejection tests below need syntactically valid frames that fail
    /// exactly one check.
    fn build_frame(snap: &Snapshot, magic: &[u8], version: u16) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(magic);
        enc.put_u16(version);
        enc.put_u64(snap.id.0);
        enc.put_str(&snap.meta.function);
        enc.put_u32(snap.meta.request_number);
        enc.put_str(&snap.meta.runtime);
        enc.put_u64(snap.nominal_size);
        enc.put_u64(snap.payload_hash());
        enc.put_u64(snap.payload.len() as u64);
        let trailer = enc.checksum();
        let mut out = enc.into_bytes();
        out.extend_from_slice(&snap.payload);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = sample();
        let restored = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn hand_built_frame_matches_to_bytes() {
        let snap = sample();
        assert_eq!(
            build_frame(&snap, SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
            snap.to_bytes().to_vec()
        );
    }

    #[test]
    fn from_shared_is_zero_copy_and_equal() {
        let snap = sample();
        let framed = snap.to_bytes();
        let restored = Snapshot::from_shared(&framed).unwrap();
        assert_eq!(restored, snap);
        let header_len = framed.len() - snap.payload.len() - 8;
        let in_frame = &framed[header_len..header_len + snap.payload.len()];
        assert_eq!(in_frame, &restored.payload[..]);
        // Zero-copy: the payload points into the frame's own buffer.
        assert_eq!(restored.payload.as_ptr(), in_frame.as_ptr());
        // `from_bytes` copies the payload out instead.
        let copied = Snapshot::from_bytes(&framed).unwrap();
        assert_ne!(copied.payload.as_ptr(), in_frame.as_ptr());
    }

    #[test]
    fn frame_chunks_round_trip() {
        let snap = sample();
        let frame = snap.to_frame();
        assert_eq!(frame.total_len(), snap.to_bytes().len());
        let [header, payload, trailer] = frame.chunks();
        assert_eq!(payload, snap.payload);
        let restored = Snapshot::from_chunks(&header, &payload, &trailer).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn to_frame_with_reuses_scratch_identically() {
        let snap = sample();
        let mut scratch = Encoder::with_capacity(256);
        // Pollute the scratch, then reuse it twice: both frames must be
        // byte-identical to a fresh encode.
        scratch.put_str("stale contents");
        let fresh = snap.to_frame();
        for _ in 0..2 {
            let reused = snap.to_frame_with(&mut scratch);
            assert_eq!(reused, fresh);
            assert_eq!(reused.to_bytes(), fresh.to_bytes());
        }
    }

    #[test]
    fn id_depends_on_content_and_meta() {
        let a = sample();
        let mut meta = a.meta.clone();
        meta.request_number = 138;
        let b = Snapshot::new(meta, a.payload.clone(), a.nominal_size);
        assert_ne!(a.id, b.id);
        let c = Snapshot::new(a.meta.clone(), Bytes::from_static(b"other"), a.nominal_size);
        assert_ne!(a.id, c.id);
    }

    #[test]
    fn twin_payloads_share_a_content_address() {
        let a = sample();
        let b = Snapshot::with_nonce(a.meta.clone(), a.payload.clone(), a.nominal_size, 99);
        assert_ne!(a.id, b.id, "nonce keeps ids distinct");
        assert_eq!(
            a.payload_hash(),
            b.payload_hash(),
            "same bytes, same address"
        );
    }

    #[test]
    fn nominal_size_mb_conversion() {
        assert!((sample().nominal_size_mb() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn payload_corruption_is_detected_by_hash() {
        let snap = sample();
        let mut bytes = snap.to_bytes().to_vec();
        // Flip a byte squarely inside the payload region.
        let payload_start = bytes.len() - 8 - snap.payload.len();
        bytes[payload_start + snap.payload.len() / 2] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotFormatError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_corruption_is_detected() {
        let snap = sample();
        let frame = snap.to_bytes();
        let payload_start = frame.len() - 8 - snap.payload.len();
        // Flip every header byte in turn; each corrupt frame must fail
        // with *some* typed error — never parse as valid.
        for i in 0..payload_start {
            let mut bytes = frame.to_vec();
            bytes[i] ^= 0xff;
            assert!(Snapshot::from_bytes(&bytes).is_err(), "byte {i} accepted");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(Snapshot::from_bytes(&[]).is_err());
        assert!(Snapshot::from_bytes(b"junk").is_err());
        assert!(Snapshot::from_shared(&Bytes::from_static(b"junk")).is_err());
    }

    #[test]
    fn bad_magic_is_detected() {
        let snap = sample();
        let bytes = build_frame(&snap, b"WRONGMG\x01", SNAPSHOT_VERSION);
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotFormatError::BadMagic)
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let snap = sample();
        let bytes = build_frame(&snap, SNAPSHOT_MAGIC, SNAPSHOT_VERSION + 1);
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotFormatError::UnsupportedVersion(
                SNAPSHOT_VERSION + 1
            ))
        );
    }

    #[test]
    fn display_formats_id() {
        let id = SnapshotId(0xabcd);
        assert_eq!(id.to_string(), "snap-000000000000abcd");
    }
}
