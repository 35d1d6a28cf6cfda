//! A restored-but-unmapped snapshot image.
//!
//! Under the lazy strategies the worker's process is decoded immediately
//! (the simulator needs the JIT state to execute requests) but the
//! *memory* of the snapshot is modelled as unmapped: the [`LazyImage`]
//! tracks which pages are resident, turns a request's page-access trace
//! into the set of first-touch faults, and — when recording — folds every
//! first touch into a [`WorkingSetManifest`].

use std::collections::BTreeSet;

use crate::manifest::WorkingSetManifest;
use crate::page::PageMap;

/// Residency and recording state for one lazily-restored worker.
#[derive(Debug, Clone)]
pub struct LazyImage {
    snapshot_id: u64,
    map: PageMap,
    resident: BTreeSet<u32>,
    recording: Option<WorkingSetManifest>,
    recording_dirty: bool,
}

impl LazyImage {
    /// A lazy image with no recording (plain `Lazy`, or a prefetched
    /// `RecordPrefetch` restore).
    pub fn new(snapshot_id: u64, map: PageMap) -> Self {
        LazyImage {
            snapshot_id,
            map,
            resident: BTreeSet::new(),
            recording: None,
            recording_dirty: false,
        }
    }

    /// A lazy image that records its working set (the first
    /// `RecordPrefetch` restore of a snapshot).
    pub fn with_recording(function: &str, snapshot_id: u64, map: PageMap) -> Self {
        let recording = WorkingSetManifest::new(function, snapshot_id, map.page_size());
        LazyImage {
            recording: Some(recording),
            ..LazyImage::new(snapshot_id, map)
        }
    }

    /// The snapshot this image restores.
    pub fn snapshot_id(&self) -> u64 {
        self.snapshot_id
    }

    /// The page map backing the image.
    pub fn map(&self) -> &PageMap {
        &self.map
    }

    /// Marks `pages` resident (a manifest prefetch); returns the payload
    /// bytes the newly-resident pages cover.
    pub fn mark_prefetched(&mut self, pages: &[u32]) -> u64 {
        let mut bytes = 0;
        for &p in pages {
            if self.resident.insert(p) {
                bytes += self.map.page_len(p);
            }
        }
        bytes
    }

    /// Every page not yet resident, in ascending page order — the fetch
    /// set a background hydration (pre-restore warm-up) pulls to make
    /// the whole image demand-fault-free, without touching the
    /// recording manifest the way [`Self::first_touches`] would.
    pub fn absent_pages(&self) -> Vec<u32> {
        (0..self.map.page_count())
            .filter(|p| !self.resident.contains(p))
            .collect()
    }

    /// Filters `trace` down to first touches: non-resident pages, in
    /// ascending page order, each marked resident (and recorded when the
    /// image is recording).
    pub fn first_touches(&mut self, trace: &[u32]) -> Vec<u32> {
        let mut faults = BTreeSet::new();
        for &p in trace {
            if p < self.map.page_count() && self.resident.insert(p) {
                faults.insert(p);
            }
        }
        let faults: Vec<u32> = faults.into_iter().collect();
        if let Some(recording) = &mut self.recording {
            if recording.record_all(&faults) > 0 {
                self.recording_dirty = true;
            }
        }
        faults
    }

    /// The recording manifest, when this image records.
    pub fn recording(&self) -> Option<&WorkingSetManifest> {
        self.recording.as_ref()
    }

    /// True when the recording gained pages since the last
    /// [`Self::clear_dirty`].
    pub fn recording_dirty(&self) -> bool {
        self.recording_dirty
    }

    /// Acknowledges that the current recording has been persisted.
    pub fn clear_dirty(&mut self) {
        self.recording_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DEFAULT_PAGE_SIZE;

    fn image(recording: bool) -> LazyImage {
        let map = PageMap::for_snapshot("BFS", 7, 4 << 20, DEFAULT_PAGE_SIZE);
        if recording {
            LazyImage::with_recording("BFS", 1, map)
        } else {
            LazyImage::new(1, map)
        }
    }

    #[test]
    fn first_touches_are_sorted_unique_and_once() {
        let mut img = image(false);
        assert_eq!(img.first_touches(&[9, 2, 9, 5]), vec![2, 5, 9]);
        // Second request touching the same pages faults nothing.
        assert_eq!(img.first_touches(&[2, 5]), Vec::<u32>::new());
        assert_eq!(img.first_touches(&[5, 3]), vec![3]);
        assert_eq!(img.resident.len(), 4);
    }

    #[test]
    fn out_of_range_pages_are_ignored() {
        let mut img = image(false);
        let count = img.map().page_count();
        assert_eq!(img.first_touches(&[count, count + 5]), Vec::<u32>::new());
    }

    #[test]
    fn prefetched_pages_do_not_fault() {
        let mut img = image(false);
        let bytes = img.mark_prefetched(&[1, 2, 3]);
        assert_eq!(bytes, img.map().bytes_for(&[1, 2, 3]));
        assert_eq!(img.mark_prefetched(&[3]), 0);
        assert_eq!(img.first_touches(&[1, 2, 3, 4]), vec![4]);
    }

    #[test]
    fn absent_pages_complement_the_resident_set() {
        let mut img = image(true);
        let count = img.map().page_count();
        assert_eq!(img.absent_pages().len() as u32, count);
        img.mark_prefetched(&[0, 2]);
        let absent = img.absent_pages();
        assert_eq!(absent.len() as u32, count - 2);
        assert!(!absent.contains(&0) && !absent.contains(&2));
        // Hydrating via the absent set never pollutes the recording.
        img.mark_prefetched(&absent);
        assert!(img.absent_pages().is_empty());
        assert!(!img.recording_dirty());
        // A fully hydrated image demand-faults nothing.
        assert_eq!(img.first_touches(&[1, 3, 5]), Vec::<u32>::new());
    }

    #[test]
    fn recording_collects_and_flags_dirty() {
        let mut img = image(true);
        assert!(!img.recording_dirty());
        img.first_touches(&[4, 1]);
        assert!(img.recording_dirty());
        img.clear_dirty();
        // Re-touching resident pages leaves the recording clean.
        img.first_touches(&[4, 1]);
        assert!(!img.recording_dirty());
        img.first_touches(&[6]);
        assert!(img.recording_dirty());
        let recorded: Vec<u32> = img.recording().unwrap().pages().collect();
        assert_eq!(recorded, vec![1, 4, 6]);
    }
}
