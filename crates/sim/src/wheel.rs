//! Hierarchical timer wheel: an O(1) future-event list.
//!
//! A binary-heap event queue pays O(log n) pointer-chasing sifts per
//! operation. That is fine for the paper's 500-invocation figure runs but
//! dominates once a single cell replays hours of production traffic (1e6+
//! invocations). [`TimerWheel`] is the classic discrete-event-simulation
//! fix — a Varghese–Lauck hierarchical timing wheel over the µs tick grid —
//! and the one kernel every simulation runs on:
//!
//! - **Levels.** [`LEVELS`] levels of [`SLOTS`] slots, each level covering
//!   [`BITS`] more bits of the timestamp. An event whose timestamp first
//!   differs from the current clock in bit band `[ℓ·BITS, (ℓ+1)·BITS)`
//!   lives at level `ℓ`; level 0 slots therefore each hold exactly one
//!   µs-tick value. Timestamps differing from the clock above the wheel's
//!   [`WHEEL_BITS`]-bit horizon (~19 hours of virtual time) go to a sorted
//!   **spill** list and are merged back one epoch at a time.
//! - **Arena.** Events are nodes in a `Vec` arena chained by `u32` indices
//!   with a free list — no per-event allocation, and slot lists are plain
//!   index chains (`head`/`tail` per slot, occupancy bitmask per level).
//! - **Cascade.** When level 0 drains, the lowest occupied slot of the
//!   lowest occupied level is re-distributed ("cascaded") to lower levels.
//!   Cascading appends in list order, which preserves FIFO order among
//!   same-instant events; combined with the radix level rule this
//!   reproduces the exact `(at, seq)` total order of a binary heap keyed
//!   by `(at, seq)` — the test oracle in `tests/oracle/queue.rs`, which
//!   `tests/kernel_equivalence.rs` property-tests the wheel against.
//!
//! The API is `schedule`/`pop`/`peek`/`peek_time`/`now`/`len`/`clear`,
//! with past schedules clamped to `now`, exactly as the oracle's, plus
//! `take_seq`, which lets [`crate::MergedQueue`] order events kept outside
//! the wheel among the wheel's own.

use crate::time::SimTime;
use std::cell::Cell;

/// Bits of the timestamp consumed per wheel level.
pub const BITS: u32 = 6;
/// Slots per level (`2^BITS`).
pub const SLOTS: usize = 1 << BITS;
/// Number of hierarchical levels.
pub const LEVELS: usize = 6;
/// Total bits covered by the wheel; timestamps differing from the clock
/// above this band overflow to the spill list (`2^36` µs ≈ 19.1 hours).
pub const WHEEL_BITS: u32 = BITS * LEVELS as u32;

const SLOT_MASK: u64 = SLOTS as u64 - 1;
const NIL: u32 = u32::MAX;

/// One pending event in the arena. `next` chains slot lists and the free
/// list; `event` is `None` only while the node sits on the free list.
#[derive(Debug)]
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// One wheel level: per-slot intrusive list heads/tails plus an occupancy
/// bitmask so the lowest occupied slot is a single `trailing_zeros`.
#[derive(Debug)]
struct Level {
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
    occupied: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
            occupied: 0,
        }
    }

    fn reset(&mut self) {
        self.head = [NIL; SLOTS];
        self.tail = [NIL; SLOTS];
        self.occupied = 0;
    }
}

/// A deterministic future-event list with O(1) schedule and amortized-O(1)
/// pop, in `(at, seq)` order: time order, FIFO among same-instant events.
///
/// # Examples
///
/// ```
/// use pronghorn_sim::{SimTime, TimerWheel};
///
/// let mut w = TimerWheel::new();
/// w.schedule(SimTime::from_micros(10), "late");
/// w.schedule(SimTime::from_micros(10), "later"); // same instant: FIFO
/// w.schedule(SimTime::from_micros(1), "early");
/// let order: Vec<_> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["early", "late", "later"]);
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    levels: [Level; LEVELS],
    arena: Vec<Node<E>>,
    /// Head of the arena free list (`NIL` when empty).
    free: u32,
    /// Arena indices of events beyond the wheel horizon, sorted by
    /// `(at, seq)`.
    spill: Vec<u32>,
    len: usize,
    now: u64,
    next_seq: u64,
    /// The head's `(at, seq)` once a peek has found it, kept up to date by
    /// `schedule` and dropped by `pop` and `clear`.
    head: Cell<Option<(u64, u64)>>,
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the clock at the origin.
    pub fn new() -> Self {
        TimerWheel {
            levels: std::array::from_fn(|_| Level::new()),
            arena: Vec::new(),
            free: NIL,
            spill: Vec::new(),
            len: 0,
            now: 0,
            next_seq: 0,
            head: Cell::new(None),
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event, never moving backwards.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    /// Schedules `event` at instant `at`.
    ///
    /// Scheduling in the past is clamped to `now()`: the event fires
    /// immediately but time never rewinds. This matches how a real
    /// platform treats work that was due while the handler was busy.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.as_micros().max(self.now);
        let seq = self.take_seq();
        // The new event carries the largest seq, so it is the head of an
        // empty wheel, or of one whose known head is later; otherwise the
        // head stays what it was.
        match self.head.get() {
            Some((head_at, _)) if head_at <= at => {}
            Some(_) => self.head.set(Some((at, seq))),
            None if self.len == 0 => self.head.set(Some((at, seq))),
            None => {}
        }
        let idx = self.alloc(at, seq, event);
        self.len += 1;
        self.insert(idx);
    }

    /// Takes the sequence number the next `schedule` would have given its
    /// event. An event kept outside the wheel under that number sorts
    /// among the wheel's events by `(at, seq)` exactly as if it had been
    /// scheduled here.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Removes and returns the earliest event (ties FIFO by schedule
    /// order), advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.head.set(None);
        loop {
            // Level 0 slots hold exactly one tick value each, in FIFO
            // order, so the head of the lowest occupied slot is the global
            // minimum under `(at, seq)`.
            if self.levels[0].occupied != 0 {
                let slot = self.levels[0].occupied.trailing_zeros() as usize;
                let idx = self.levels[0].head[slot];
                let next = self.arena[idx as usize].next;
                self.levels[0].head[slot] = next;
                if next == NIL {
                    self.levels[0].tail[slot] = NIL;
                    self.levels[0].occupied &= !(1u64 << slot);
                }
                let node = &mut self.arena[idx as usize];
                let at = node.at;
                // pronglint: allow(panic-reach): a node linked into a slot
                // list always holds its event; only this pop takes it.
                let event = node.event.take().expect("pending node holds an event");
                self.release(idx);
                self.len -= 1;
                self.now = at;
                return Some((SimTime::from_micros(at), event));
            }
            // Cascade the lowest occupied slot of the lowest occupied
            // level down; it contains the minimum pending timestamp.
            if let Some(level) = (1..LEVELS).find(|&l| self.levels[l].occupied != 0) {
                self.cascade(level);
                continue;
            }
            // Wheel empty: merge the next epoch of far-future events.
            self.drain_spill_epoch();
        }
    }

    /// Returns the `(at, seq)` of the next event without removing it: the
    /// event `pop` returns next, and its place in the `(at, seq)` order.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        let head = self.head.get().or_else(|| {
            let head = self.find_head();
            self.head.set(head);
            head
        });
        head.map(|(at, seq)| (SimTime::from_micros(at), seq))
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// The smallest pending `(at, seq)`, if any event is pending.
    fn find_head(&self) -> Option<(u64, u64)> {
        // Level 0 slots hold one tick value each in FIFO order, so the
        // lowest occupied one's head is the minimum. Above level 0 the
        // lowest occupied slot of the lowest occupied level holds the
        // minimum somewhere in its list; past the wheel, the spill's
        // first entry is.
        let head = match (0..LEVELS).find(|&l| self.levels[l].occupied != 0) {
            Some(0) => self.levels[0].head[self.levels[0].occupied.trailing_zeros() as usize],
            Some(level) => {
                let slot = self.levels[level].occupied.trailing_zeros() as usize;
                let mut idx = self.levels[level].head[slot];
                let mut min = idx;
                while idx != NIL {
                    let (node, best) = (&self.arena[idx as usize], &self.arena[min as usize]);
                    if (node.at, node.seq) < (best.at, best.seq) {
                        min = idx;
                    }
                    idx = node.next;
                }
                min
            }
            None => *self.spill.first()?,
        };
        let node = &self.arena[head as usize];
        Some((node.at, node.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event, keeping the clock (and the sequence
    /// counter) where they are.
    pub fn clear(&mut self) {
        for level in self.levels.iter_mut() {
            level.reset();
        }
        self.arena.clear();
        self.free = NIL;
        self.spill.clear();
        self.len = 0;
        self.head.set(None);
    }

    /// Takes a node off the free list or grows the arena.
    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.arena[idx as usize];
            self.free = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.event = Some(event);
            idx
        } else {
            let idx = self.arena.len();
            assert!(
                idx < NIL as usize,
                "timer-wheel arena exhausted u32 indices"
            );
            self.arena.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx as u32
        }
    }

    /// Returns a popped node to the free list.
    fn release(&mut self, idx: u32) {
        let node = &mut self.arena[idx as usize];
        debug_assert!(node.event.is_none());
        node.next = self.free;
        self.free = idx;
    }

    /// Places node `idx` into the level/slot dictated by its timestamp's
    /// highest bit of difference from the clock, or into the spill list if
    /// it lies beyond the wheel horizon.
    fn insert(&mut self, idx: u32) {
        let at = self.arena[idx as usize].at;
        debug_assert!(at >= self.now);
        let diff = at ^ self.now;
        if diff >> WHEEL_BITS != 0 {
            self.spill_insert(idx);
            return;
        }
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / BITS) as usize
        };
        let slot = ((at >> (level as u32 * BITS)) & SLOT_MASK) as usize;
        let tail = self.levels[level].tail[slot];
        if tail == NIL {
            self.levels[level].head[slot] = idx;
        } else {
            self.arena[tail as usize].next = idx;
        }
        self.levels[level].tail[slot] = idx;
        self.levels[level].occupied |= 1u64 << slot;
    }

    /// Inserts into the sorted spill list, keyed by `(at, seq)`. Fresh
    /// schedules carry the largest sequence number so far, so in the
    /// common case this is an append or a short shift from the back.
    fn spill_insert(&mut self, idx: u32) {
        let key = {
            let node = &self.arena[idx as usize];
            (node.at, node.seq)
        };
        let pos = self.spill.partition_point(|&j| {
            let node = &self.arena[j as usize];
            (node.at, node.seq) <= key
        });
        self.spill.insert(pos, idx);
    }

    /// Redistributes the lowest occupied slot of `level` to lower levels.
    ///
    /// The slot's block base is at or ahead of the clock (slot indices at
    /// an occupied level are strictly greater than the clock's digit), so
    /// the clock may be advanced to the base before re-inserting — this is
    /// externally invisible because `pop` overwrites `now` with the popped
    /// event's timestamp before returning, and the base never exceeds the
    /// minimum pending timestamp.
    fn cascade(&mut self, level: usize) {
        let slot = self.levels[level].occupied.trailing_zeros() as usize;
        let shift = level as u32 * BITS;
        let span = 1u64 << (shift + BITS);
        let base = (self.now & !(span - 1)) | ((slot as u64) << shift);
        debug_assert!(base >= self.now);
        if base > self.now {
            self.now = base;
        }
        let mut idx = self.levels[level].head[slot];
        self.levels[level].head[slot] = NIL;
        self.levels[level].tail[slot] = NIL;
        self.levels[level].occupied &= !(1u64 << slot);
        // Re-insert in list order: same-instant events keep FIFO order.
        while idx != NIL {
            let next = self.arena[idx as usize].next;
            self.arena[idx as usize].next = NIL;
            self.insert(idx);
            idx = next;
        }
    }

    /// Moves the earliest epoch of spilled events into the wheel. Only
    /// called when the wheel proper is empty, so every event of the epoch
    /// is merged before any of them can be popped.
    fn drain_spill_epoch(&mut self) {
        debug_assert!(!self.spill.is_empty(), "len > 0 but wheel and spill empty");
        let head_epoch = self.arena[self.spill[0] as usize].at >> WHEEL_BITS;
        let epoch_start = head_epoch << WHEEL_BITS;
        // Spilled events always belong to epochs strictly ahead of the
        // clock's; jumping to the epoch start lands them in the wheel.
        if epoch_start > self.now {
            self.now = epoch_start;
        }
        let keep = self
            .spill
            .partition_point(|&j| self.arena[j as usize].at >> WHEEL_BITS == head_epoch);
        let rest = self.spill.split_off(keep);
        let drained = std::mem::replace(&mut self.spill, rest);
        for idx in drained {
            self.insert(idx);
        }
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(30), 3);
        w.schedule(SimTime::from_micros(10), 1);
        w.schedule(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            w.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(10), ());
        w.pop();
        assert_eq!(w.now(), SimTime::from_micros(10));
        // Scheduling in the past clamps to now.
        w.schedule(SimTime::from_micros(3), ());
        let (at, _) = w.pop().unwrap();
        assert_eq!(at, SimTime::from_micros(10));
        assert_eq!(w.now(), SimTime::from_micros(10));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(7), "x");
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(w.len(), 1);
        // A far event, then one at the same instant as the head: the
        // head's key stays the first one's.
        w.schedule(SimTime::from_micros(1 << 20), "far");
        w.schedule(SimTime::from_micros(7), "tie");
        assert_eq!(w.peek(), Some((SimTime::from_micros(7), 0)));
        assert_eq!(w.pop().map(|(_, e)| e), Some("x"));
        assert_eq!(w.peek(), Some((SimTime::from_micros(7), 2)));
        w.pop();
        // Only a level-3 event is left; its key comes from a slot scan.
        assert_eq!(w.peek(), Some((SimTime::from_micros(1 << 20), 1)));
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }

    #[test]
    fn clear_preserves_clock() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::ZERO + SimDuration::from_secs(1), ());
        w.pop();
        w.schedule(SimTime::ZERO + SimDuration::from_secs(2), ());
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.now(), SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn empty_wheel_pops_none() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        assert!(w.pop().is_none());
        assert!(w.peek_time().is_none());
    }

    #[test]
    fn events_on_level_rollover_ticks_stay_ordered() {
        // Timestamps landing exactly on level boundaries: 2^6, 2^12, ...,
        // up to the wheel horizon 2^36 and one epoch past it, plus the
        // tick just before and after each boundary.
        let mut boundary_ticks = vec![0u64, 1];
        for level in 1..=LEVELS as u32 {
            let edge = 1u64 << (level * BITS);
            boundary_ticks.extend([edge - 1, edge, edge + 1]);
        }
        boundary_ticks.extend([(1u64 << WHEEL_BITS) * 2, (1u64 << WHEEL_BITS) * 2 + 1]);

        let mut w = TimerWheel::new();
        let mut q = EventQueue::new();
        // Schedule in reverse so the wheel cannot ride insertion order.
        for (i, &t) in boundary_ticks.iter().enumerate().rev() {
            w.schedule(SimTime::from_micros(t), i);
            q.schedule(SimTime::from_micros(t), i);
        }
        loop {
            let (a, b) = (w.pop(), q.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cascade_boundary_crossing_after_partial_drain() {
        // Drain up to just before a level-1 rollover, then schedule across
        // it; the new event must still pop after the pending pre-boundary
        // one scheduled earlier.
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_micros(62), "early");
        w.schedule(SimTime::from_micros(63), "edge");
        w.schedule(SimTime::from_micros(64), "rolled");
        assert_eq!(w.pop().unwrap().1, "early");
        w.schedule(SimTime::from_micros(64), "rolled-later");
        w.schedule(SimTime::from_micros(4096), "level2");
        assert_eq!(w.pop().unwrap().1, "edge");
        assert_eq!(w.pop().unwrap().1, "rolled");
        assert_eq!(w.pop().unwrap().1, "rolled-later");
        assert_eq!(w.pop().unwrap().1, "level2");
        assert!(w.pop().is_none());
    }

    #[test]
    fn spill_epochs_merge_in_order() {
        let horizon = 1u64 << WHEEL_BITS;
        let mut w = TimerWheel::new();
        // Three epochs interleaved with near events.
        w.schedule(SimTime::from_micros(3 * horizon + 7), "e3");
        w.schedule(SimTime::from_micros(horizon + 5), "e1b");
        w.schedule(SimTime::from_micros(horizon + 1), "e1a");
        w.schedule(SimTime::from_micros(10), "near");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["near", "e1a", "e1b", "e3"]);
        assert_eq!(w.now(), SimTime::from_micros(3 * horizon + 7));
        // After jumping epochs, scheduling stays consistent.
        w.schedule(SimTime::from_micros(1), "past-clamped");
        let (at, e) = w.pop().unwrap();
        assert_eq!(
            (at, e),
            (SimTime::from_micros(3 * horizon + 7), "past-clamped")
        );
    }

    #[test]
    fn interleaved_pop_and_schedule_matches_reference_queue() {
        // A deterministic pseudo-random workload cross-checked against the
        // binary-heap oracle (the heavier property test lives in
        // tests/kernel_equivalence.rs).
        let mut w = TimerWheel::new();
        let mut q = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for i in 0..5_000u64 {
            let r = step(&mut x);
            match r % 4 {
                0 | 1 => {
                    // Mix of near, boundary-straddling and far-future times.
                    let dt = match (r >> 8) % 4 {
                        0 => (r >> 16) % 64,
                        1 => (r >> 16) % 5_000,
                        2 => (1 << 12) - 2 + ((r >> 16) % 5),
                        _ => (r >> 16) % (1 << 38),
                    };
                    let at = w.now() + SimDuration::from_micros(dt);
                    w.schedule(at, i);
                    q.schedule(at, i);
                }
                2 => {
                    assert_eq!(w.pop(), q.pop());
                    assert_eq!(w.now(), q.now());
                }
                _ => {
                    // Past schedule: clamped to now by both kernels.
                    let at = SimTime::from_micros(w.now().as_micros().saturating_sub(r % 100));
                    w.schedule(at, i);
                    q.schedule(at, i);
                }
            }
            assert_eq!(w.len(), q.len());
            assert_eq!(w.peek(), q.peek());
        }
        loop {
            let (a, b) = (w.pop(), q.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn arena_recycles_nodes() {
        let mut w = TimerWheel::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                w.schedule(SimTime::from_micros(round * 1_000 + i), i);
            }
            while w.pop().is_some() {}
        }
        // The free list caps arena growth at the peak population.
        assert!(w.arena.len() <= 100);
    }
}
