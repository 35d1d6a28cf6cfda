//! The snapshot: what the Checkpoint Engine produces and the Object Store
//! transports — the serialized process state, tagged with the function it
//! belongs to and the request number at which it was taken (the key input
//! to the request-centric policy). Its stored form is a [`crate::frame`].

use bytes::Bytes;
use pronghorn_sim::hash::{fnv1a_wide, Fnv1a};
use std::fmt;

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
    /// Serialized process state; private so it cannot drift from
    /// `payload_hash`.
    payload: Bytes,
    /// Modeled size in bytes of the (compressed) process image a real
    /// checkpoint engine would have produced; drives transfer/storage cost
    /// accounting (Tables 4 and 5).
    pub nominal_size: u64,
    /// Cached `Fnv1aWide` hash of `payload`, computed once at
    /// construction; doubles as the payload's content address for store
    /// dedup and as the integrity hash written into the frame header.
    payload_hash: u64,
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
    /// already verified against `payload` — frame parsing and delta
    /// compose, which must reproduce the original snapshot's id exactly
    /// (ids mix in a nonce that is not persisted, so they cannot be
    /// re-derived here).
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

    /// Serialized process state.
    #[inline]
    pub fn payload(&self) -> &Bytes {
        &self.payload
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecError, Encoder};
    use crate::frame::{Frame, FrameError, Stored, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

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

    fn frame(snap: &Snapshot) -> Frame {
        snap.to_frame_with(&mut Encoder::new())
    }

    /// Hand-builds a full frame from parts, with magic/version overridable
    /// — the rejection tests below need syntactically valid frames that
    /// fail exactly one check.
    fn build_frame(snap: &Snapshot, magic: &[u8], version: u16) -> Frame {
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
        Frame {
            header: Bytes::from(enc.into_bytes()),
            payload: snap.payload.clone(),
            trailer: Bytes::copy_from_slice(&trailer.to_le_bytes()),
        }
    }

    /// `frame` with its header replaced by `header`.
    fn with_header(frame: &Frame, header: Vec<u8>) -> Frame {
        Frame {
            header: Bytes::from(header),
            ..frame.clone()
        }
    }

    /// `frame`'s three chunks laid end to end in one buffer, as a store
    /// that keeps a frame contiguously would hold it.
    fn contiguous(frame: &Frame) -> Vec<u8> {
        [&frame.header[..], &frame.payload[..], &frame.trailer[..]].concat()
    }

    /// Splits a contiguous frame back into its chunks; every chunk is a
    /// slice of `bytes`, so none copies.
    fn split(bytes: &Bytes, header_len: usize, payload_len: usize) -> Frame {
        let payload_end = header_len + payload_len;
        Frame {
            header: bytes.slice(..header_len),
            payload: bytes.slice(header_len..payload_end),
            trailer: bytes.slice(payload_end..),
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = sample();
        let framed = frame(&snap);
        let bytes = Bytes::from(contiguous(&framed));
        let Ok(Stored::Full(restored)) =
            split(&bytes, framed.header.len(), snap.payload.len()).parse()
        else {
            panic!("a contiguous full frame parses as a full snapshot");
        };
        assert_eq!(restored, snap);
    }

    #[test]
    fn from_shared_is_zero_copy_and_equal() {
        let snap = sample();
        let framed = frame(&snap);
        let shared = Bytes::from(contiguous(&framed));
        let header_len = framed.header.len();
        let Ok(Stored::Full(restored)) = split(&shared, header_len, snap.payload.len()).parse()
        else {
            panic!("a shared full frame parses as a full snapshot");
        };
        assert_eq!(restored, snap);
        let in_frame = &shared[header_len..header_len + snap.payload.len()];
        assert_eq!(in_frame, &restored.payload[..]);
        // Zero-copy: the payload points into the shared buffer itself.
        assert_eq!(restored.payload.as_ptr(), in_frame.as_ptr());
    }

    #[test]
    fn hand_built_frame_matches_to_bytes() {
        let snap = sample();
        assert_eq!(
            build_frame(&snap, SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
            frame(&snap)
        );
    }

    #[test]
    fn frame_chunks_round_trip() {
        let snap = sample();
        let frame = frame(&snap);
        assert_eq!(frame.payload, snap.payload);
        let Ok(Stored::Full(restored)) = frame.parse() else {
            panic!("a full frame parses as a full snapshot");
        };
        assert_eq!(restored, snap);
        // Zero-copy both ways: the payload chunk is the snapshot's buffer,
        // and the parsed payload is the chunk's.
        assert_eq!(frame.payload.as_ptr(), snap.payload.as_ptr());
        assert_eq!(restored.payload.as_ptr(), frame.payload.as_ptr());
    }

    #[test]
    fn to_frame_with_reuses_scratch_identically() {
        let snap = sample();
        let mut scratch = Encoder::with_capacity(256);
        // Pollute the scratch, then reuse it twice: both frames must be
        // byte-identical to a fresh encode.
        scratch.put_str("stale contents");
        let fresh = frame(&snap);
        for _ in 0..2 {
            assert_eq!(snap.to_frame_with(&mut scratch), fresh);
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
        let mut frame = frame(&snap);
        let mut payload = frame.payload.to_vec();
        payload[snap.payload.len() / 2] ^= 0xff;
        frame.payload = Bytes::from(payload);
        assert!(matches!(
            frame.parse(),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_corruption_is_detected() {
        let frame = frame(&sample());
        // Flip every header and trailer byte in turn; each corrupt frame
        // must fail with *some* typed error — never parse as valid.
        for i in 0..frame.header.len() {
            let mut header = frame.header.to_vec();
            header[i] ^= 0xff;
            assert!(
                with_header(&frame, header).parse().is_err(),
                "byte {i} accepted"
            );
        }
        for i in 0..frame.trailer.len() {
            let mut trailer = frame.trailer.to_vec();
            trailer[i] ^= 0xff;
            let bad = Frame {
                trailer: Bytes::from(trailer),
                ..frame.clone()
            };
            assert!(bad.parse().is_err(), "trailer byte {i} accepted");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let frame = frame(&sample());
        let header = frame.header.to_vec();
        assert!(with_header(&frame, header[..header.len() - 3].to_vec())
            .parse()
            .is_err());
        assert!(with_header(&frame, Vec::new()).parse().is_err());
        assert!(with_header(&frame, b"junk".to_vec()).parse().is_err());
        let short_payload = Frame {
            payload: frame.payload.slice(1..),
            ..frame.clone()
        };
        assert!(matches!(
            short_payload.parse(),
            Err(FrameError::Codec(CodecError::LengthOutOfBounds { .. }))
        ));
        let short_trailer = Frame {
            trailer: frame.trailer.slice(..7),
            ..frame
        };
        assert!(short_trailer.parse().is_err());
    }

    #[test]
    fn bad_magic_is_detected() {
        let bad = build_frame(&sample(), b"WRONGMG\x01", SNAPSHOT_VERSION);
        assert_eq!(bad.parse(), Err(FrameError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let bad = build_frame(&sample(), SNAPSHOT_MAGIC, SNAPSHOT_VERSION + 1);
        assert_eq!(
            bad.parse(),
            Err(FrameError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
    }

    #[test]
    fn display_formats_id() {
        let id = SnapshotId(0xabcd);
        assert_eq!(id.to_string(), "snap-000000000000abcd");
    }
}
