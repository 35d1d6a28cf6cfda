//! The page-granular snapshot memory model.
//!
//! A snapshot payload is sliced into fixed-size pages, each with a
//! deterministic 64-bit content address (the storage tier seeds a page's
//! modeled compression ratio with it). Two regions get different
//! addressing so that addresses match how real snapshot memory behaves:
//!
//! - the **base region** (first quarter of the image, at least one page)
//!   holds runtime text and never-written data segments — identical
//!   across every snapshot of the same function, so its page addresses
//!   are keyed by `(function, index)` and shared across snapshots;
//! - the **heap region** (the rest) is checkpoint-specific, keyed by
//!   `(payload_hash, index)` — twin snapshots with byte-identical
//!   payloads share it, distinct checkpoints do not.

use pronghorn_sim::hash::{fnv1a, mix64};

/// Default page size: 256 KiB. Large enough that a Table 4 snapshot maps
/// to tens-to-hundreds of pages (cheap maps and manifests), small enough
/// that working sets resolve well below the full image.
pub const DEFAULT_PAGE_SIZE: u64 = 256 * 1024;

/// Salt separating base-region page addresses from other hash domains.
const BASE_PAGE_SALT: u64 = 0x7052_4247; // "pRBG"

/// A deterministic page-granular view of one snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMap {
    payload_hash: u64,
    page_size: u64,
    total_bytes: u64,
    /// Content address per page, ascending by page index.
    hashes: Vec<u64>,
}

impl PageMap {
    /// Builds the page map for a snapshot of `total_bytes` belonging to
    /// `function`, whose payload hashes to `payload_hash`.
    ///
    /// The map is a pure function of its arguments: same snapshot ⇒ same
    /// map, on every run.
    pub fn for_snapshot(
        function: &str,
        payload_hash: u64,
        total_bytes: u64,
        page_size: u64,
    ) -> Self {
        let page_size = page_size.max(1);
        let count = total_bytes.div_ceil(page_size).max(1);
        let base_pages = (count / 4).max(1);
        let fn_hash = fnv1a(function.as_bytes());
        let hashes = (0..count)
            .map(|idx| {
                if idx < base_pages {
                    mix64(fn_hash ^ mix64(idx.wrapping_add(BASE_PAGE_SALT)))
                } else {
                    mix64(payload_hash ^ mix64(idx))
                }
            })
            .collect();
        PageMap {
            payload_hash,
            page_size,
            total_bytes,
            hashes,
        }
    }

    /// Content address of the whole payload the map pages — the storage
    /// tier's compression seed for fetches of several pages at once.
    pub fn payload_hash(&self) -> u64 {
        self.payload_hash
    }

    /// The fixed page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Logical snapshot size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of pages (≥ 1).
    pub fn page_count(&self) -> u32 {
        self.hashes.len() as u32
    }

    /// Number of base-region pages (first quarter, at least one).
    pub fn base_region_pages(&self) -> u32 {
        (self.page_count() / 4).max(1)
    }

    /// Content address of page `idx`.
    ///
    /// Returns `None` past the end of the map.
    pub fn page_hash(&self, idx: u32) -> Option<u64> {
        self.hashes.get(idx as usize).copied()
    }

    /// Byte length of page `idx` — `page_size` except for a partial last
    /// page; 0 past the end.
    pub fn page_len(&self, idx: u32) -> u64 {
        let idx = u64::from(idx);
        let count = self.hashes.len() as u64;
        if idx + 1 < count {
            self.page_size
        } else if idx + 1 == count {
            // ceil division puts the remainder in (0, page_size] for any
            // non-empty payload; an empty payload has one zero-length page.
            self.total_bytes - (count - 1) * self.page_size
        } else {
            0
        }
    }

    /// Total bytes covered by `pages` (indices into this map).
    pub fn bytes_for(&self, pages: &[u32]) -> u64 {
        pages.iter().map(|&p| self.page_len(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_deterministic() {
        let a = PageMap::for_snapshot("BFS", 0xdead_beef, 12 << 20, DEFAULT_PAGE_SIZE);
        let b = PageMap::for_snapshot("BFS", 0xdead_beef, 12 << 20, DEFAULT_PAGE_SIZE);
        assert_eq!(a, b);
        assert_eq!(a.page_count(), 48);
    }

    #[test]
    fn base_region_dedups_across_snapshots_of_one_function() {
        let a = PageMap::for_snapshot("BFS", 1, 12 << 20, DEFAULT_PAGE_SIZE);
        let b = PageMap::for_snapshot("BFS", 2, 12 << 20, DEFAULT_PAGE_SIZE);
        let base = a.base_region_pages();
        for idx in 0..base {
            assert_eq!(a.page_hash(idx), b.page_hash(idx), "base page {idx}");
        }
        // Heap pages differ between distinct payloads...
        assert_ne!(a.page_hash(base), b.page_hash(base));
        // ...but twin payloads share them.
        let twin = PageMap::for_snapshot("BFS", 1, 12 << 20, DEFAULT_PAGE_SIZE);
        assert_eq!(a.page_hash(base), twin.page_hash(base));
    }

    #[test]
    fn functions_do_not_share_base_pages() {
        let a = PageMap::for_snapshot("BFS", 1, 12 << 20, DEFAULT_PAGE_SIZE);
        let b = PageMap::for_snapshot("DFS", 1, 12 << 20, DEFAULT_PAGE_SIZE);
        assert_ne!(a.page_hash(0), b.page_hash(0));
    }

    #[test]
    fn partial_last_page_length() {
        let m = PageMap::for_snapshot("f", 7, DEFAULT_PAGE_SIZE + 100, DEFAULT_PAGE_SIZE);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.page_len(0), DEFAULT_PAGE_SIZE);
        assert_eq!(m.page_len(1), 100);
        assert_eq!(m.page_len(2), 0);
        assert_eq!(m.bytes_for(&[0, 1]), m.total_bytes());
    }

    #[test]
    fn exact_multiple_has_full_last_page() {
        let m = PageMap::for_snapshot("f", 7, 4 * DEFAULT_PAGE_SIZE, DEFAULT_PAGE_SIZE);
        assert_eq!(m.page_count(), 4);
        assert_eq!(m.page_len(3), DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn tiny_snapshot_is_one_page() {
        let m = PageMap::for_snapshot("f", 7, 10, DEFAULT_PAGE_SIZE);
        assert_eq!(m.page_count(), 1);
        assert_eq!(m.base_region_pages(), 1);
        assert_eq!(m.page_len(0), 10);
    }
}
