//! Discrete-event simulation kernel for the Pronghorn reproduction.
//!
//! This crate is the lowest layer of the workspace. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: a virtual microsecond clock, the unit in
//!   which every latency in the paper's evaluation is reported;
//! - [`EventQueue`]: a deterministic time-ordered event queue with FIFO
//!   tie-breaking, the core of the serverless-platform simulator;
//! - [`TimerWheel`] / [`Kernel`]: a hierarchical timer-wheel kernel with
//!   the identical ordering contract (O(1) instead of O(log n) per event,
//!   for production-trace-scale replays), selectable via [`KernelKind`];
//! - [`RngFactory`]: reproducible named random-number streams, so that every
//!   source of randomness (JIT compile jitter, input-size noise, policy
//!   sampling, ...) is independently seeded and bit-for-bit replayable;
//! - [`hash`]: a dependency-free FNV-1a implementation used for seed
//!   derivation and content addressing in the object store.
//!
//! # Examples
//!
//! ```
//! use pronghorn_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! queue.schedule(SimTime::ZERO, "first");
//! assert_eq!(queue.pop().unwrap().1, "first");
//! assert_eq!(queue.pop().unwrap().1, "second");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod kernel;
pub mod queue;
pub mod rng;
pub mod time;
pub mod wheel;

pub use kernel::{Kernel, KernelKind};
pub use queue::EventQueue;
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
