//! A timer wheel merged with a queue of streamed arrivals.
//!
//! A replay's arrivals come from a sorted stream, so scheduling each into
//! the [`TimerWheel`] (and cascading it down the wheel's levels) spends
//! work and arena memory on an order the stream already has. A
//! [`MergedQueue`] keeps them beside the wheel instead, in a plain queue of
//! `(at, seq)`, and pops whichever of the queue's head and the wheel's head
//! is smaller. Each queued arrival takes its `seq` from the wheel's own
//! counter when it enters the queue, and its instant is clamped to the
//! clock, as [`TimerWheel::schedule`] would clamp it, so the merged pop
//! order is exactly the `(at, seq)` order of one wheel that received every
//! arrival through `schedule` at the same moments. An arrival out of order
//! with the queue's last one goes through `schedule` itself, under the same
//! `seq`, so the queue stays sorted and its arrivals stay in stream order.
//! `tests/merge_equivalence.rs` property-tests this against the
//! binary-heap oracle.

use crate::time::SimTime;
use crate::wheel::TimerWheel;
use std::collections::VecDeque;

/// A future-event list in `(at, seq)` order over two stores: a
/// [`TimerWheel`] for the events [`schedule`](Self::schedule) adds, and a
/// queue for the arrivals [`fill`](Self::fill) streams in, at most
/// `lookahead` events pending across both.
///
/// # Examples
///
/// ```
/// use pronghorn_sim::{MergedQueue, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Arrival(u64),
///     Probe,
/// }
///
/// let mut q = MergedQueue::new(2, 0, Event::Arrival);
/// let mut stream = [5, 5, 9].map(SimTime::from_micros).into_iter();
/// q.fill(&mut stream); // arrivals 0 and 1: the window is full
/// assert_eq!((q.len(), q.streamed()), (2, 2));
/// q.schedule(SimTime::from_micros(5), Event::Probe); // after both: FIFO
/// let (at, first) = q.pop().unwrap();
/// assert_eq!((at.as_micros(), first), (5, Event::Arrival(0)));
/// q.fill(&mut stream); // no room: arrival 2 still waits
/// assert_eq!(q.pop().unwrap().1, Event::Arrival(1));
/// assert_eq!(q.pop().unwrap().1, Event::Probe);
/// q.fill(&mut stream);
/// assert_eq!(q.pop().unwrap().1, Event::Arrival(2));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct MergedQueue<E> {
    wheel: TimerWheel<E>,
    /// Streamed arrivals not yet popped, as `(at, seq)`: sorted, and in
    /// stream order.
    queued: VecDeque<(u64, u64)>,
    lookahead: usize,
    /// The number of the queue's first arrival, or of the next arrival to
    /// stream when the queue is empty.
    front: u64,
    /// The number the next streamed arrival gets.
    next: u64,
    /// Numbers of arrivals past `front` that went to the wheel, ascending.
    diverted: VecDeque<u64>,
    /// The instant of the last pop: the wheel's clock lags it while
    /// arrivals pop from the queue.
    now: SimTime,
    /// The event a popped arrival becomes, given its number.
    arrival: fn(u64) -> E,
}

impl<E> MergedQueue<E> {
    /// An empty queue with the clock at the origin, which holds at most
    /// `lookahead` pending events while [`fill`](Self::fill) streams
    /// arrivals in, numbers them from `first` on, and pops arrival `i` as
    /// `arrival(i)`.
    pub fn new(lookahead: usize, first: u64, arrival: fn(u64) -> E) -> Self {
        MergedQueue {
            wheel: TimerWheel::new(),
            queued: VecDeque::new(),
            lookahead,
            front: first,
            next: first,
            diverted: VecDeque::new(),
            now: SimTime::ZERO,
            arrival,
        }
    }

    /// The number the next streamed arrival gets: `first` plus the
    /// arrivals streamed so far.
    pub fn streamed(&self) -> u64 {
        self.next
    }

    /// The instant of the most recently popped event, never moving
    /// backwards.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events pending: the wheel's plus the queued arrivals.
    pub fn len(&self) -> usize {
        self.wheel.len() + self.queued.len()
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at `at` in the wheel, clamped to
    /// [`now`](Self::now).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.wheel.schedule(at.max(self.now), event);
    }

    /// Streams arrivals from `arrivals` while fewer than `lookahead` events
    /// are pending. An arrival takes the wheel's next sequence number and
    /// is clamped to [`now`](Self::now), so it pops exactly where
    /// [`schedule`](Self::schedule) at this moment would have put it. A
    /// sorted stream only ever appends to the queue; an instant earlier
    /// than the queue's last goes to the wheel.
    pub fn fill(&mut self, arrivals: &mut impl Iterator<Item = SimTime>) {
        while self.len() < self.lookahead {
            let Some(at) = arrivals.next() else { break };
            let at = at.max(self.now);
            match self.queued.back() {
                Some(&(last, _)) if last > at.as_micros() => {
                    self.wheel.schedule(at, (self.arrival)(self.next));
                    self.diverted.push_back(self.next);
                }
                _ => {
                    let seq = self.wheel.take_seq();
                    self.queued.push_back((at.as_micros(), seq));
                }
            }
            self.next += 1;
        }
    }

    /// Removes and returns the earliest pending event under `(at, seq)`,
    /// advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let arrival_first = match (self.queued.front(), self.wheel.peek()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(&key), Some((at, seq))) => key < (at.as_micros(), seq),
        };
        let (at, event) = if arrival_first {
            let (at, _) = self.queued.pop_front()?;
            let index = self.front;
            self.front += 1;
            while self.diverted.front() == Some(&self.front) {
                self.diverted.pop_front();
                self.front += 1;
            }
            (SimTime::from_micros(at), (self.arrival)(index))
        } else {
            self.wheel.pop()?
        };
        self.now = at;
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Arrival(u64),
        Other(u32),
    }

    #[test]
    fn an_out_of_order_arrival_pops_at_its_place() {
        // Arrivals 6 and 7 go to the wheel; 5, 8 and 9 stay queued.
        let mut q = MergedQueue::new(8, 5, Ev::Arrival);
        let stream = [30, 10, 20, 30, 40].map(SimTime::from_micros);
        q.fill(&mut stream.into_iter());
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let at = SimTime::from_micros;
        let expected = [(10, 6), (20, 7), (30, 5), (30, 8), (40, 9)];
        assert_eq!(order, expected.map(|(t, i)| (at(t), Ev::Arrival(i))));
    }

    #[test]
    fn a_sorted_stream_never_enters_the_wheel() {
        let mut q = MergedQueue::new(2, 0, Ev::Arrival);
        let mut stream = [5, 5, 5, 9, 9, 12].map(SimTime::from_micros).into_iter();
        let mut popped = Vec::new();
        loop {
            q.fill(&mut stream);
            assert!(q.wheel.is_empty() && q.diverted.is_empty());
            let Some((_, Ev::Arrival(i))) = q.pop() else {
                break;
            };
            popped.push(i);
        }
        assert_eq!(popped, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn schedules_behind_the_clock_are_clamped_to_the_last_pop() {
        // The arrival at 50 pops from the queue, so the wheel's own clock
        // stays at 0; the merge still clamps a schedule at 10 to 50.
        let mut q = MergedQueue::new(8, 0, Ev::Arrival);
        q.fill(&mut std::iter::once(SimTime::from_micros(50)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(50), Ev::Arrival(0))));
        q.schedule(SimTime::from_micros(10), Ev::Other(1));
        assert_eq!(q.pop(), Some((SimTime::from_micros(50), Ev::Other(1))));
        assert_eq!(q.now(), SimTime::from_micros(50));
    }

    #[test]
    fn without_arrivals_it_is_the_wheel() {
        let mut q = MergedQueue::new(1, 0, Ev::Arrival);
        let mut w = TimerWheel::new();
        for (i, t) in [40u64, 7, 7, 90, 7].into_iter().enumerate() {
            q.schedule(SimTime::from_micros(t), Ev::Other(i as u32));
            w.schedule(SimTime::from_micros(t), Ev::Other(i as u32));
        }
        assert_eq!(q.len(), 5);
        let merged: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let wheel: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(merged, wheel);
    }
}
