//! Model-equivalence property test of the merged queue: a sorted arrival
//! source streamed beside the timer wheel pops exactly as the binary-heap
//! oracle in `oracle/queue.rs` does when every arrival goes through its
//! `schedule` at the same moment.
//!
//! Both sides run the engine's loop: stream arrivals while fewer than
//! `lookahead` events are pending, pop one event, and let it schedule
//! more. The lookahead is small (1..=64), so the window fills and arrivals
//! enter it between other schedules: an arrival and an event at the same
//! instant tie in both `seq` orders. Sources step back now and then (an
//! out-of-order instant, clamped when it is behind the clock), and popped
//! events schedule at, after and before the clock. Pop order, `now` and
//! the peak pending count must agree.

#![forbid(unsafe_code)]

use pronghorn_sim::{MergedQueue, SimDuration, SimTime};
use proptest::prelude::*;

#[path = "oracle/queue.rs"]
mod queue;

use queue::EventQueue;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival(u64),
    Other(u32),
}

/// The next arrival instant relative to the previous one.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Later by this many µs (0: a same-instant arrival).
    Ahead(u64),
    /// Earlier by this many µs: an out-of-order instant.
    Back(u64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..40).prop_map(Step::Ahead),
        (0u64..40).prop_map(Step::Ahead),
        Just(Step::Ahead(0)),
        (1u64..200).prop_map(Step::Back),
    ]
}

/// Where a popped event schedules a new one, relative to the clock.
#[derive(Debug, Clone, Copy)]
enum Offset {
    Ahead(u64),
    /// Behind the clock: clamped to it.
    Past(u64),
}

fn offset_strategy() -> impl Strategy<Value = Offset> {
    prop_oneof![
        // Near the arrivals' own spacing, so instants often tie.
        (0u64..60).prop_map(Offset::Ahead),
        (0u64..60).prop_map(Offset::Ahead),
        Just(Offset::Ahead(0)),
        // Across the wheel's level-1 and level-2 rollovers.
        (62u64..5_000).prop_map(Offset::Ahead),
        (0u64..100).prop_map(Offset::Past),
    ]
}

/// `steps` as absolute instants from `start`.
fn instants(start: u64, steps: &[Step]) -> Vec<SimTime> {
    let mut at = start;
    steps
        .iter()
        .map(|step| {
            at = match *step {
                Step::Ahead(d) => at + d,
                Step::Back(d) => at.saturating_sub(d),
            };
            SimTime::from_micros(at)
        })
        .collect()
}

fn offset_from(now: SimTime, offset: Offset) -> SimTime {
    match offset {
        Offset::Ahead(d) => now + SimDuration::from_micros(d),
        Offset::Past(d) => SimTime::from_micros(now.as_micros().saturating_sub(d)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn merged_queue_matches_reference_queue(
        lookahead in 1usize..=64,
        first in 0u64..1_000,
        start in 0u64..100,
        steps in prop::collection::vec(step_strategy(), 0..200),
        seeded in prop::collection::vec(offset_strategy(), 0..4),
        script in prop::collection::vec(prop::collection::vec(offset_strategy(), 0..3), 1..8),
        budget in 0u32..300,
    ) {
        let arrivals = instants(start, &steps);
        let mut merged = MergedQueue::new(lookahead, first, Ev::Arrival);
        let mut oracle = EventQueue::new();
        let mut source = arrivals.iter().copied();
        let (mut oracle_source, mut oracle_next) = (arrivals.iter().copied(), first);
        // Events scheduled before the first arrival streams in.
        let mut tag = 0u32;
        for &offset in &seeded {
            let at = offset_from(SimTime::ZERO, offset);
            merged.schedule(at, Ev::Other(tag));
            oracle.schedule(at, Ev::Other(tag));
            tag += 1;
        }
        let (mut peak, mut oracle_peak, mut pops) = (0, 0, 0usize);
        loop {
            merged.fill(&mut source);
            while oracle.len() < lookahead {
                let Some(at) = oracle_source.next() else { break };
                oracle.schedule(at, Ev::Arrival(oracle_next));
                oracle_next += 1;
            }
            prop_assert_eq!(merged.len(), oracle.len());
            peak = peak.max(merged.len());
            oracle_peak = oracle_peak.max(oracle.len());
            let popped = merged.pop();
            prop_assert_eq!(popped, oracle.pop());
            prop_assert_eq!(merged.now(), oracle.now());
            let Some((now, _)) = popped else { break };
            for &offset in &script[pops % script.len()] {
                if tag < budget {
                    let at = offset_from(now, offset);
                    merged.schedule(at, Ev::Other(tag));
                    oracle.schedule(at, Ev::Other(tag));
                    tag += 1;
                }
            }
            pops += 1;
        }
        prop_assert_eq!(peak, oracle_peak);
        prop_assert_eq!(merged.streamed(), first + arrivals.len() as u64);
        prop_assert_eq!(pops, arrivals.len() + tag as usize);
    }
}
