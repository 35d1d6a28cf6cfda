//! The recorded working-set manifest and its binary codec.
//!
//! The first lazy restore of a snapshot under `RecordPrefetch` records
//! every first-touch page into a manifest; the manifest is persisted in
//! the object store and later restores of the same snapshot prefetch the
//! recorded set in one batched transfer. Recording is idempotent — the
//! set is a `BTreeSet`, so replaying the same trace (or a permutation of
//! it) yields the same manifest and the same encoded bytes.

use std::collections::BTreeSet;
use std::fmt;

use pronghorn_checkpoint::{CodecError, Decoder, Encoder};

/// Magic prefix of an encoded manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"PRWSET\x00\x01";

/// Current manifest wire version.
pub const MANIFEST_VERSION: u16 = 1;

/// A decode failure for [`WorkingSetManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The buffer does not start with [`MANIFEST_MAGIC`].
    Magic,
    /// The wire version is newer than this build understands.
    Version {
        /// The rejected version.
        found: u16,
    },
    /// A structural codec failure.
    Codec(CodecError),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Magic => write!(f, "not a working-set manifest (bad magic)"),
            ManifestError::Version { found } => {
                write!(f, "unsupported manifest version {found}")
            }
            ManifestError::Codec(e) => write!(f, "manifest codec error: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<CodecError> for ManifestError {
    fn from(e: CodecError) -> Self {
        ManifestError::Codec(e)
    }
}

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

    /// Encodes the manifest into `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(MANIFEST_MAGIC);
        enc.put_u16(MANIFEST_VERSION);
        enc.put_str(&self.function);
        enc.put_u64(self.snapshot_id);
        enc.put_u64(self.page_size);
        let pages = self.to_sorted_vec();
        enc.put_seq(&pages, |e, &p| e.put_u32(p));
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decodes a manifest, rejecting wrong magic, newer versions, and
    /// trailing bytes.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ManifestError> {
        let mut dec = Decoder::new(buf);
        if dec.take_bytes()? != MANIFEST_MAGIC {
            return Err(ManifestError::Magic);
        }
        let version = dec.take_u16()?;
        if version != MANIFEST_VERSION {
            return Err(ManifestError::Version { found: version });
        }
        let function = dec.take_str()?.to_string();
        let snapshot_id = dec.take_u64()?;
        let page_size = dec.take_u64()?;
        let pages = dec.take_seq(4, |d| d.take_u32())?;
        dec.finish()?;
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
            Err(ManifestError::Codec(_))
        ));
        // Flip a magic byte (past the 8-byte length prefix).
        bytes[8] ^= 0xff;
        assert_eq!(
            WorkingSetManifest::from_bytes(&bytes).err(),
            Some(ManifestError::Magic)
        );
        // Trailing garbage is rejected.
        let mut long = m.to_bytes();
        long.push(0);
        assert!(matches!(
            WorkingSetManifest::from_bytes(&long),
            Err(ManifestError::Codec(_))
        ));
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
