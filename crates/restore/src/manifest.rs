//! The recorded working-set manifest and its binary codec.
//!
//! The first lazy restore of a snapshot under `RecordPrefetch` records
//! every first-touch page into a manifest; the manifest is persisted in
//! the object store and later restores of the same snapshot prefetch the
//! recorded set in one batched transfer. Recording is idempotent — the
//! set is a `BTreeSet`, so replaying the same trace (or a permutation of
//! it) yields the same manifest and the same encoded bytes.
//!
//! A manifest is stored as one chunk that opens with the snapshot frames'
//! envelope (`pronghorn_checkpoint::frame`), and decodes only from the
//! bytes its own encoding would produce: pages must ascend strictly.

use std::collections::BTreeSet;

use pronghorn_checkpoint::frame::{put_envelope, take_envelope};
use pronghorn_checkpoint::{Decoder, Encoder, FrameError};

/// Magic prefix of an encoded manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"PRWSET\x00\x01";

/// Current manifest wire version.
pub const MANIFEST_VERSION: u16 = 1;

/// The set of pages a function touched during a recorded restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingSetManifest {
    function: String,
    snapshot_id: u64,
    page_size: u64,
    pages: BTreeSet<u32>,
}

impl WorkingSetManifest {
    /// An empty manifest for one snapshot of `function`.
    pub fn new(function: &str, snapshot_id: u64, page_size: u64) -> Self {
        WorkingSetManifest {
            function: function.to_string(),
            snapshot_id,
            page_size,
            pages: BTreeSet::new(),
        }
    }

    /// The recorded snapshot's id.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// The page size the recording was made at.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Records one touched page; returns `true` if it was new.
    pub fn record(&mut self, page: u32) -> bool {
        self.pages.insert(page)
    }

    /// Records every page in `pages`; returns how many were new.
    pub fn record_all(&mut self, pages: &[u32]) -> usize {
        pages.iter().filter(|&&p| self.pages.insert(p)).count()
    }

    /// Number of recorded pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Recorded pages in ascending order.
    pub fn pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.iter().copied()
    }

    /// Recorded pages as an ascending vector (the prefetch batch order).
    pub fn to_sorted_vec(&self) -> Vec<u32> {
        self.pages.iter().copied().collect()
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        put_envelope(&mut enc, MANIFEST_MAGIC, MANIFEST_VERSION);
        enc.put_str(&self.function);
        enc.put_u64(self.snapshot_id);
        enc.put_u64(self.page_size);
        enc.put_seq(&self.to_sorted_vec(), |e, &p| e.put_u32(p));
        enc.into_bytes()
    }

    /// Decodes a manifest, rejecting wrong magic, other versions, pages
    /// out of ascending order, and trailing bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, FrameError> {
        let mut dec = Decoder::new(buf);
        take_envelope(&mut dec, MANIFEST_MAGIC, MANIFEST_VERSION)?;
        let function = dec.take_str()?.to_string();
        let snapshot_id = dec.take_u64()?;
        let page_size = dec.take_u64()?;
        let pages = dec.take_seq(4, |d| d.take_u32())?;
        dec.finish()?;
        if let Some(w) = pages.windows(2).find(|w| w[0] >= w[1]) {
            return Err(FrameError::PageOutOfBounds { index: w[1] });
        }
        Ok(WorkingSetManifest {
            function,
            snapshot_id,
            page_size,
            pages: pages.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn manifest(pages: &[u32]) -> WorkingSetManifest {
        let mut m = WorkingSetManifest::new("BFS", 42, 256 * 1024);
        m.record_all(pages);
        m
    }

    #[test]
    fn recording_dedups_and_sorts() {
        let mut m = manifest(&[9, 3, 3, 7]);
        assert_eq!(m.len(), 3);
        assert!(m.record(1));
        assert!(!m.record(9));
        assert_eq!(m.to_sorted_vec(), vec![1, 3, 7, 9]);
    }

    #[test]
    fn replay_idempotence() {
        // Recording the same trace twice — or any permutation of it —
        // yields the same manifest and the same encoded bytes.
        let trace = [5u32, 2, 8, 2, 5, 11];
        let mut once = WorkingSetManifest::new("f", 7, 4096);
        once.record_all(&trace);
        let mut twice = WorkingSetManifest::new("f", 7, 4096);
        twice.record_all(&trace);
        assert_eq!(twice.record_all(&trace), 0);
        let mut permuted = WorkingSetManifest::new("f", 7, 4096);
        let mut rev: Vec<u32> = trace.to_vec();
        rev.reverse();
        permuted.record_all(&rev);
        assert_eq!(once, twice);
        assert_eq!(once, permuted);
        assert_eq!(once.to_bytes(), permuted.to_bytes());
    }

    #[test]
    fn codec_round_trip() {
        let m = manifest(&[0, 4, 17, 100_000]);
        let back = WorkingSetManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let m = manifest(&[1]);
        let mut bytes = m.to_bytes();
        assert!(matches!(
            WorkingSetManifest::from_bytes(&bytes[..5]),
            Err(FrameError::Codec(_))
        ));
        // Bump the version (just past the 8-byte length prefix and magic).
        let mut newer = bytes.clone();
        newer[16] += 1;
        assert_eq!(
            WorkingSetManifest::from_bytes(&newer).err(),
            Some(FrameError::UnsupportedVersion(MANIFEST_VERSION + 1))
        );
        // Flip a magic byte (past the 8-byte length prefix).
        bytes[8] ^= 0xff;
        assert_eq!(
            WorkingSetManifest::from_bytes(&bytes).err(),
            Some(FrameError::BadMagic)
        );
        // Trailing garbage is rejected.
        let mut long = m.to_bytes();
        long.push(0);
        assert!(matches!(
            WorkingSetManifest::from_bytes(&long),
            Err(FrameError::Codec(_))
        ));
        // A page list out of ascending order is not an encoding.
        let mut unsorted = manifest(&[1, 2]).to_bytes();
        let n = unsorted.len();
        unsorted[n - 8] = 3;
        assert_eq!(
            WorkingSetManifest::from_bytes(&unsorted).err(),
            Some(FrameError::PageOutOfBounds { index: 2 })
        );
    }

    proptest! {
        #[test]
        fn prop_round_trip(pages in proptest::collection::vec(0u32..2_000, 0..64),
                           id in 0u64..u64::MAX,
                           page_size in 1u64..(1 << 30)) {
            let mut m = WorkingSetManifest::new("Thumbnailer", id, page_size);
            m.record_all(&pages);
            let back = WorkingSetManifest::from_bytes(&m.to_bytes()).unwrap();
            prop_assert_eq!(back, m);
        }
    }
}
