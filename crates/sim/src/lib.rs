//! Discrete-event simulation kernel for the Pronghorn reproduction.
//!
//! This crate is the lowest layer of the workspace. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: a virtual microsecond clock, the unit in
//!   which every latency in the paper's evaluation is reported;
//! - [`TimerWheel`]: the simulation kernel, a hierarchical timer wheel
//!   that pops events in `(at, seq)` order — time order with FIFO
//!   tie-breaking — at O(1) per event. Every runner drives it. Its test
//!   oracle, a binary-heap queue with the same contract, lives in
//!   `tests/oracle/` and is property-tested against it in
//!   `tests/kernel_equivalence.rs`;
//! - [`RngFactory`]: reproducible named random-number streams, so that every
//!   source of randomness (JIT compile jitter, input-size noise, policy
//!   sampling, ...) is independently seeded and bit-for-bit replayable;
//! - [`hash`]: a dependency-free FNV-1a implementation used for seed
//!   derivation and content addressing in the object store.
//!
//! # Examples
//!
//! ```
//! use pronghorn_sim::{SimDuration, SimTime, TimerWheel};
//!
//! let mut kernel: TimerWheel<&str> = TimerWheel::new();
//! kernel.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! kernel.schedule(SimTime::ZERO, "first");
//! assert_eq!(kernel.pop().unwrap().1, "first");
//! assert_eq!(kernel.pop().unwrap().1, "second");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod kernel;
pub mod rng;
pub mod time;
pub mod wheel;

// Kept only for the `benchmark/` package; see `kernel`.
pub use kernel::{Kernel, KernelKind};
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;

#[cfg(test)]
#[path = "../tests/oracle/queue.rs"]
mod queue;
