//! A one-variant kernel selector kept only so the `benchmark/` package
//! builds unchanged: it names `KernelKind::TimerWheel`, `Kernel::new`,
//! `RunConfig::kernel` and `RunConfig::with_kernel`. Nothing in the
//! workspace selects a kernel — every simulation runs on [`TimerWheel`].
//! This shim is removed together with those uses, in the next change to
//! the benchmark.

use crate::wheel::TimerWheel;
use std::ops::{Deref, DerefMut};

/// The simulation kernel. It has one variant: the timer wheel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// The hierarchical timer wheel.
    TimerWheel,
}

/// A [`TimerWheel`] built from a [`KernelKind`]; derefs to the wheel.
pub struct Kernel<E>(TimerWheel<E>);

impl<E> Kernel<E> {
    /// Creates an empty timer wheel.
    pub fn new(_kind: KernelKind) -> Self {
        Kernel(TimerWheel::new())
    }
}

impl<E> Deref for Kernel<E> {
    type Target = TimerWheel<E>;

    fn deref(&self) -> &TimerWheel<E> {
        &self.0
    }
}

impl<E> DerefMut for Kernel<E> {
    fn deref_mut(&mut self) -> &mut TimerWheel<E> {
        &mut self.0
    }
}
