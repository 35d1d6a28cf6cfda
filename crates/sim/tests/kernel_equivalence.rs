//! Model-equivalence property tests: the timer wheel is observationally
//! identical to the binary-heap oracle in `oracle/queue.rs`.
//!
//! Arbitrary interleaved `schedule`/`pop`/`clear` sequences — including
//! same-instant bursts, past-clamped schedules, level-rollover-straddling
//! offsets and far-future spill timestamps — must pop in the exact same
//! `(at, seq, event)` order from both kernels, with `now`, `len` and
//! `peek_time` agreeing after every operation.

#![forbid(unsafe_code)]

use pronghorn_sim::{SimDuration, SimTime, TimerWheel};
use proptest::prelude::*;

#[path = "oracle/queue.rs"]
mod queue;

use queue::EventQueue;

/// One scripted kernel operation. `Schedule` offsets are relative to the
/// clock at execution time so that scripts stay meaningful wherever the
/// clock has advanced to.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule `burst` events `ahead` µs after the current clock.
    Schedule { ahead: u64, burst: u8 },
    /// Schedule `back` µs *before* the current clock (clamps to `now`).
    SchedulePast { back: u64 },
    /// Pop one event.
    Pop,
    /// Drop all pending events, keeping the clock.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Near offsets inside level 0/1.
        (0u64..200, 1u8..4).prop_map(|(ahead, burst)| Op::Schedule { ahead, burst }),
        // Offsets straddling the 2^6 / 2^12 / 2^18 level rollovers.
        (0u32..3, 62u64..67, 1u8..3).prop_map(|(level, near, burst)| Op::Schedule {
            ahead: near << (6 * level),
            burst,
        }),
        // Same-instant bursts at the current clock.
        (1u8..6).prop_map(|burst| Op::Schedule { ahead: 0, burst }),
        // Far-future offsets, past the 2^36 wheel horizon into the spill.
        (1u64 << 35..1u64 << 40).prop_map(|ahead| Op::Schedule { ahead, burst: 1 }),
        (0u64..5_000).prop_map(|back| Op::SchedulePast { back }),
        (0u8..4).prop_map(|_| Op::Pop),
        Just(Op::Clear),
    ]
}

proptest! {
    /// Both kernels agree on every observable after every operation.
    #[test]
    fn wheel_matches_reference_queue(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut wheel = TimerWheel::new();
        let mut queue = EventQueue::new();
        let mut tag = 0u32;
        for op in &ops {
            match *op {
                Op::Schedule { ahead, burst } => {
                    // Both clocks agree (checked below), so the absolute
                    // instants are identical for both kernels.
                    let at = wheel.now() + SimDuration::from_micros(ahead);
                    for _ in 0..burst {
                        wheel.schedule(at, tag);
                        queue.schedule(at, tag);
                        tag += 1;
                    }
                }
                Op::SchedulePast { back } => {
                    let at = SimTime::from_micros(wheel.now().as_micros().saturating_sub(back));
                    wheel.schedule(at, tag);
                    queue.schedule(at, tag);
                    tag += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), queue.pop());
                }
                Op::Clear => {
                    wheel.clear();
                    queue.clear();
                }
            }
            prop_assert_eq!(wheel.now(), queue.now());
            prop_assert_eq!(wheel.len(), queue.len());
            prop_assert_eq!(wheel.peek_time(), queue.peek_time());
        }
        // Drain whatever is left: the residual order must match.
        loop {
            let (a, b) = (wheel.pop(), queue.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Scheduling everything up front pops in globally sorted `(at, seq)`
    /// order.
    #[test]
    fn bulk_schedule_pops_sorted(ats in prop::collection::vec(0u64..1u64 << 38, 1..400)) {
        let mut wheel = TimerWheel::new();
        for (i, &at) in ats.iter().enumerate() {
            wheel.schedule(SimTime::from_micros(at), i);
        }
        let mut expected: Vec<(u64, usize)> =
            ats.iter().enumerate().map(|(i, &at)| (at, i)).collect();
        expected.sort();
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| wheel.pop())
            .map(|(t, i)| (t.as_micros(), i))
            .collect();
        prop_assert_eq!(popped, expected);
    }
}
