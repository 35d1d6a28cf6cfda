//! Overflow-safe accumulation for the byte-accounting counters.
//!
//! The Table 5 byte decomposition (`restore_bytes == nominal + remote`,
//! DESIGN.md §14) is computed from a handful of `u64` totals
//! (`bytes_transferred`, `remote_bytes`, `nominal_bytes_*`,
//! `replicated_bytes`, …) accumulated across millions of simulated
//! events. A bare `+=` on any of them wraps silently on overflow and
//! corrupts a headline number without failing a single test; pronglint
//! rule `byte-conservation` rejects such sites. This module is the
//! sanctioned alternative: [`saturating_accumulate`] pins the counter at
//! `u64::MAX` (a visibly absurd total), and debug builds fail fast naming
//! the counter.

/// Adds `delta` to `counter`, pinning at `u64::MAX` on overflow — for
/// accumulation sites inside event loops that have no error channel. A
/// pinned ceiling is loud in any report; a wrapped counter looks
/// plausible. Debug builds additionally fail fast, naming the counter.
pub fn saturating_accumulate(name: &'static str, counter: &mut u64, delta: u64) {
    match counter.checked_add(delta) {
        Some(next) => *counter = next,
        None => {
            debug_assert!(
                false,
                "byte-accounting counter `{name}` overflows u64: {counter} + {delta}"
            );
            *counter = u64::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_accumulates_and_reports_overflow() {
        let mut c = 40;
        saturating_accumulate("remote_bytes", &mut c, 2);
        assert_eq!(c, 42);
        // An overflow is reported under the counter's name in debug
        // builds and pins the counter in release builds.
        let report = std::panic::catch_unwind(move || {
            saturating_accumulate("remote_bytes", &mut c, u64::MAX);
            c
        });
        match report {
            Ok(pinned) => assert_eq!(pinned, u64::MAX),
            Err(panic) => {
                let msg = panic.downcast_ref::<String>().unwrap();
                assert!(msg.contains("`remote_bytes` overflows u64: 42 + "), "{msg}");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "overflows u64"))]
    fn saturating_pins_at_ceiling() {
        let mut c = u64::MAX - 1;
        saturating_accumulate("bytes_transferred", &mut c, 1);
        assert_eq!(c, u64::MAX);
        // Past the ceiling: release builds pin, debug builds fail fast.
        saturating_accumulate("bytes_transferred", &mut c, 1);
        assert_eq!(c, u64::MAX);
    }
}
