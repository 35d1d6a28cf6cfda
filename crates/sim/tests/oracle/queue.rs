//! The reference future-event list: the test oracle of the timer wheel.
//!
//! A thin wrapper over a binary heap keyed by `(SimTime, sequence)`. The
//! monotone sequence number gives FIFO ordering among events scheduled for
//! the same instant — a plain `BinaryHeap<(SimTime, E)>` would break ties
//! arbitrarily. Every simulation runs on the timer wheel; this queue is
//! the obviously-correct model the wheel must pop in step with, so it lives
//! in test code only. One copy is compiled into both the crate's unit tests
//! (`src/lib.rs`) and `tests/kernel_equivalence.rs` (its own unit tests run
//! in both). Each parent imports `SimTime`, so it is reached via `super`.

#![allow(dead_code)]

use super::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: ordered by time, then by insertion order.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list ordered by `(at, seq)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the origin.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event, never moving backwards.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at instant `at`.
    ///
    /// Scheduling in the past is clamped to `now()`: the event fires
    /// immediately but time never rewinds. This matches how a real platform
    /// treats work that was due while the handler was busy.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(10));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_micros(3), ());
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_micros(10));
        assert_eq!(q.now(), SimTime::from_micros(10));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_preserves_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_000_000), ());
        q.pop();
        q.schedule(SimTime::from_micros(2_000_000), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_micros(1_000_000));
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
    }
}
