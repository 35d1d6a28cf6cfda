//! Restored-process IO staleness — the Uploader-regression mechanism.
//!
//! A process restored from a CRIU image resumes with the *frozen* external
//! state of the checkpointed process: TCP connections point at sockets
//! that no longer exist, DNS caches and connection pools are stale, and
//! all of it is re-established lazily on first use. A cold-started process
//! instead sets connections up as part of its (already-charged) lazy
//! initialization.
//!
//! For compute-bound functions the effect is invisible (no IO to slow
//! down). For an almost-purely-IO function like Uploader it is the whole
//! story: restores buy nothing (the native-library IO path is not
//! JIT-able) and pay the reconnect tax — and snapshots taken at *later*
//! request numbers carry more accumulated connection/buffer state, so the
//! request-centric policy's deep snapshots pay slightly more than the
//! state of the art's request-1 snapshot. That asymmetry reproduces §5.2:
//! "only one (Uploader) shows worse performance".
//!
//! **Node-local clocks.** The staleness horizon is per-*node*: a restore
//! that crossed a node boundary resumes IO state frozen at the origin
//! node's checkpoint time, which the receiving node's clock has since run
//! past — DNS TTLs lapse, idle connections get reaped. The original model
//! computed the penalty purely per-run, which is wrong the moment a
//! cluster restores snapshots across nodes; [`IoStaleModel::penalty_frac_aged`]
//! threads that node-clock age through as an additive term that is
//! *exactly zero* at age zero, so every single-node run stays
//! bit-identical.

use pronghorn_sim::SimDuration;

/// Parameters of the IO staleness penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoStaleModel {
    /// Base fraction of a request's IO time added right after a restore.
    pub base_frac: f64,
    /// Additional fraction at snapshot request number `W` (scales linearly
    /// with `request_number / w`): deeper snapshots hold more stale state.
    pub depth_frac: f64,
    /// Per-request decay: the penalty halves on each subsequent request as
    /// pools re-fill.
    pub decay: f64,
    /// Requests after a restore during which the penalty applies.
    pub horizon: u32,
    /// Extra penalty fraction per *minute* of cross-node snapshot age
    /// (see [`Self::penalty_frac_aged`]); the aged term is capped at
    /// [`Self::AGE_FRAC_CAP`] so pathological ages cannot dominate.
    pub age_frac_per_min: f64,
}

impl Default for IoStaleModel {
    fn default() -> Self {
        IoStaleModel {
            base_frac: 0.08,
            depth_frac: 0.08,
            decay: 0.75,
            horizon: 4,
            age_frac_per_min: 0.01,
        }
    }
}

impl IoStaleModel {
    /// Penalty fraction of `io_us` for the `nth_since_restore`-th request
    /// (0-based) after restoring a snapshot taken at `snapshot_request` of
    /// a search space bounded by `w`.
    pub fn penalty_frac(&self, snapshot_request: u32, w: u32, nth_since_restore: u32) -> f64 {
        if nth_since_restore >= self.horizon {
            return 0.0;
        }
        let depth = if w == 0 {
            0.0
        } else {
            (f64::from(snapshot_request) / f64::from(w)).min(1.0)
        };
        let first = self.base_frac + self.depth_frac * depth;
        first * self.decay.powi(nth_since_restore as i32)
    }

    /// Ceiling on the age-derived extra penalty fraction.
    pub const AGE_FRAC_CAP: f64 = 0.25;

    /// Like [`Self::penalty_frac`], but for a restore whose snapshot had
    /// aged `stale_age` across a node boundary (the receiving node's
    /// clock minus the origin node's checkpoint time). The age adds
    /// `age_frac_per_min × minutes` (capped at [`Self::AGE_FRAC_CAP`]),
    /// decaying per request like the base penalty.
    ///
    /// At `stale_age == 0` this returns the *exact* float
    /// [`Self::penalty_frac`] returns — local restores and whole
    /// single-node runs are bit-identical through this path.
    pub fn penalty_frac_aged(
        &self,
        snapshot_request: u32,
        w: u32,
        nth_since_restore: u32,
        stale_age: SimDuration,
    ) -> f64 {
        let base = self.penalty_frac(snapshot_request, w, nth_since_restore);
        if stale_age.is_zero() || nth_since_restore >= self.horizon {
            return base;
        }
        let minutes = stale_age.as_micros() as f64 / 60e6;
        let aged = (self.age_frac_per_min * minutes).min(Self::AGE_FRAC_CAP);
        base + aged * self.decay.powi(nth_since_restore as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_decays_and_expires() {
        let m = IoStaleModel::default();
        let p0 = m.penalty_frac(1, 100, 0);
        let p1 = m.penalty_frac(1, 100, 1);
        let p2 = m.penalty_frac(1, 100, 2);
        assert!(p0 > p1 && p1 > p2 && p2 > 0.0);
        assert_eq!(m.penalty_frac(1, 100, 4), 0.0);
    }

    #[test]
    fn deeper_snapshots_pay_more() {
        let m = IoStaleModel::default();
        let shallow = m.penalty_frac(1, 100, 0);
        let deep = m.penalty_frac(100, 100, 0);
        assert!(deep > shallow);
        assert!((deep - (m.base_frac + m.depth_frac)).abs() < 1e-12);
        // Depth saturates at w.
        assert_eq!(m.penalty_frac(500, 100, 0), deep);
    }

    #[test]
    fn disabled_model_is_zero_everywhere() {
        let m = IoStaleModel {
            base_frac: 0.0,
            depth_frac: 0.0,
            decay: 0.5,
            horizon: 0,
            age_frac_per_min: 0.0,
        };
        assert_eq!(m.penalty_frac(50, 100, 0), 0.0);
    }

    #[test]
    fn zero_w_is_handled() {
        let m = IoStaleModel::default();
        assert!((m.penalty_frac(10, 0, 0) - m.base_frac).abs() < 1e-12);
    }

    #[test]
    fn zero_age_is_bit_identical_to_the_unaged_penalty() {
        let m = IoStaleModel::default();
        for nth in 0..6 {
            for req in [0u32, 1, 50, 100, 500] {
                let plain = m.penalty_frac(req, 100, nth);
                let aged = m.penalty_frac_aged(req, 100, nth, SimDuration::ZERO);
                // Exact bit equality, not approximate: the single-node
                // goldens ride on this.
                assert_eq!(plain.to_bits(), aged.to_bits(), "req {req} nth {nth}");
            }
        }
    }

    #[test]
    fn cross_node_age_raises_the_penalty_and_decays() {
        let m = IoStaleModel::default();
        let age = SimDuration::from_secs(120); // 2 minutes across nodes
        let local = m.penalty_frac(10, 100, 0);
        let remote = m.penalty_frac_aged(10, 100, 0, age);
        assert!(remote > local, "remote {remote} must exceed local {local}");
        assert!((remote - local - m.age_frac_per_min * 2.0).abs() < 1e-12);
        // The aged term decays per request like the base penalty...
        let r0 = m.penalty_frac_aged(10, 100, 0, age) - m.penalty_frac(10, 100, 0);
        let r1 = m.penalty_frac_aged(10, 100, 1, age) - m.penalty_frac(10, 100, 1);
        assert!(r1 < r0 && r1 > 0.0);
        // ...and expires at the horizon with the rest of the model.
        assert_eq!(m.penalty_frac_aged(10, 100, m.horizon, age), 0.0);
    }

    #[test]
    fn aged_term_is_capped() {
        let m = IoStaleModel::default();
        let ancient = SimDuration::from_secs(3600 * 24);
        let p = m.penalty_frac_aged(10, 100, 0, ancient);
        assert!((p - m.penalty_frac(10, 100, 0) - IoStaleModel::AGE_FRAC_CAP).abs() < 1e-12);
    }
}
