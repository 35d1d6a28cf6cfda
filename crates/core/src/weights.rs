//! The weight vector `θ` and its derived distributions.
//!
//! Part 3 of Algorithm 1: `θ` is zero-initialized with length `W`; each
//! request's end-to-end latency updates its slot — first sample directly,
//! then exponentially weighted. The probability map `D` assigns request
//! number `i` the unnormalized weight `1/(θ[i]+µ)`, so unexplored slots
//! dominate until the whole `[0, W)` range has been measured.

use rand::Rng;

/// Reusable buffers for the per-decision hot path.
///
/// Every start decision and checkpoint plan needs a candidate-weight array
/// and (for softmax selection) a probability array. Holding them here lets
/// a policy make every decision after the first without allocating: the
/// buffers are cleared and refilled in place. The float operations and RNG
/// draw counts are identical to the allocating variants, so fixed-seed
/// results do not change.
#[derive(Debug, Clone, Default)]
pub struct DecisionScratch {
    /// Per-candidate weight buffer.
    pub weights: Vec<f64>,
    /// Per-candidate probability buffer (softmax output).
    pub probs: Vec<f64>,
}

impl DecisionScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        DecisionScratch::default()
    }
}

/// EWMA latency estimates per request number.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightVector {
    theta: Vec<f64>,
    alpha: f64,
}

impl WeightVector {
    /// Creates a zero-initialized vector of length `w` with EWMA factor
    /// `alpha` (clamped to `(0, 1]`).
    pub fn new(w: u32, alpha: f64) -> Self {
        WeightVector {
            theta: vec![0.0; w as usize],
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// The search-space bound `W`.
    pub fn w(&self) -> u32 {
        self.theta.len() as u32
    }

    /// Latency estimate for request number `r` (0 = unexplored).
    pub fn get(&self, r: u32) -> f64 {
        self.theta.get(r as usize).copied().unwrap_or(0.0)
    }

    /// Number of explored slots.
    pub fn explored(&self) -> usize {
        self.theta.iter().filter(|&&x| x > 0.0).count()
    }

    /// Folds a latency sample into slot `r` (ignored when `r >= W` or the
    /// sample is not a positive finite value).
    ///
    /// Implements `OnRequest` exactly: first sample initializes, later
    /// samples blend with `θ[R] ← α·L + (1−α)·θ[R]`.
    pub fn update(&mut self, r: u32, latency_us: f64) {
        if !(latency_us.is_finite() && latency_us > 0.0) {
            return;
        }
        let Some(slot) = self.theta.get_mut(r as usize) else {
            return;
        };
        if *slot == 0.0 {
            *slot = latency_us;
        } else {
            *slot = self.alpha * latency_us + (1.0 - self.alpha) * *slot;
        }
    }

    /// The probability map `D`: `Pr[i] ∝ 1/(θ[i]+µ)` (unnormalized).
    pub fn prob_map(&self, mu: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.prob_map_into(mu, &mut out);
        out
    }

    /// [`Self::prob_map`] into a reusable buffer (cleared first).
    pub fn prob_map_into(&self, mu: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.theta.iter().map(|&t| 1.0 / (t + mu)));
    }

    /// Inverse weight of one slot, clamping `r` into `[0, W)` — used for
    /// lifetime windows that run past the end of the measured range.
    fn inv_weight_clamped(&self, r: u32, mu: f64) -> f64 {
        let idx = (r as usize).min(self.theta.len().saturating_sub(1));
        1.0 / (self.theta[idx] + mu)
    }

    /// Part 1 (`OnContainerStart`): draws the request number at which to
    /// checkpoint a worker that starts at request `start` and is expected
    /// to live `beta` requests. Returns `None` when the whole interval
    /// lies at or beyond `W` (checkpointing no longer permitted).
    pub fn sample_checkpoint_request<R: Rng + ?Sized>(
        &self,
        start: u32,
        beta: u32,
        mu: f64,
        rng: &mut R,
    ) -> Option<u32> {
        let mut scratch = DecisionScratch::new();
        self.sample_checkpoint_request_with(&mut scratch, start, beta, mu, rng)
    }

    /// [`Self::sample_checkpoint_request`] using caller-provided scratch
    /// buffers, so repeated decisions allocate nothing. Draws identically
    /// to the allocating variant under the same RNG state.
    pub fn sample_checkpoint_request_with<R: Rng + ?Sized>(
        &self,
        scratch: &mut DecisionScratch,
        start: u32,
        beta: u32,
        mu: f64,
        rng: &mut R,
    ) -> Option<u32> {
        if start >= self.w() {
            return None;
        }
        let end = start.saturating_add(beta).min(self.w().saturating_sub(1));
        scratch.weights.clear();
        scratch
            .weights
            .extend((start..=end).map(|r| self.inv_weight_clamped(r, mu)));
        let offset = weighted_draw(&scratch.weights, rng)?;
        Some(start + offset as u32)
    }

    /// Part 2 (`GetSnapshotWeights` line 15): the average lifetime weight
    /// of a snapshot taken at request `r0` — the mean of `1/(θ+µ)` over
    /// the **inclusive** window `[r0, r0+beta]` (`Σ_{i=R0}^{R0+β}` in the
    /// paper), indices clamped into the measured range.
    ///
    /// Inclusivity matters: the slot one past a frontier snapshot's
    /// lifetime keeps its weight enormous until that request number has
    /// been explored, which is what drives the policy's walk across the
    /// whole `[0, W)` search space.
    pub fn lifetime_weight(&self, r0: u32, beta: u32, mu: f64) -> f64 {
        let beta = beta.max(1);
        // pronglint: det-order — sums over the ascending range [r0, r0+beta].
        let total: f64 = (r0..=r0 + beta)
            .map(|r| self.inv_weight_clamped(r, mu))
            .sum();
        total / f64::from(beta + 1)
    }

    /// Estimated mean latency over a lifetime starting at `r0` — the
    /// "lifetime latency" of §3.4, over the same inclusive window as
    /// [`Self::lifetime_weight`], with unexplored slots contributing zero.
    pub fn lifetime_latency(&self, r0: u32, beta: u32) -> f64 {
        let beta = beta.max(1);
        // pronglint: det-order — sums over the ascending range [r0, r0+beta].
        let total: f64 = (r0..=r0 + beta)
            .map(|r| {
                let idx = (r as usize).min(self.theta.len().saturating_sub(1));
                self.theta[idx]
            })
            .sum();
        total / f64::from(beta + 1)
    }
}

/// Draws an index proportionally to `weights`. Returns `None` for empty or
/// degenerate (all-zero/non-finite) weights.
pub fn weighted_draw<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Option<usize> {
    // pronglint: det-order — sums in slice order, fixed by the caller.
    let total: f64 = weights
        .iter()
        .copied()
        .filter(|w| w.is_finite() && *w > 0.0)
        .sum();
    if total <= 0.0 || total.is_nan() || weights.is_empty() {
        return None;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if !(w.is_finite() && w > 0.0) {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point tail: return the last positive-weight index.
    weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
}

/// The softmax of §3.4 footnote 2: `s = e / Σeᵢ` with `e = exp(v)`,
/// applied after normalizing `v` to `[0, scale]` so that inverse-µs
/// weights do not collapse to a uniform distribution.
pub fn scaled_softmax(values: &[f64], scale: f64) -> Vec<f64> {
    let mut out = Vec::new();
    scaled_softmax_into(values, scale, &mut out);
    out
}

/// [`scaled_softmax`] into a reusable buffer (cleared first). The float
/// operations run in the same order as the allocating variant, so the
/// resulting distribution is bit-identical.
pub fn scaled_softmax_into(values: &[f64], scale: f64, out: &mut Vec<f64>) {
    out.clear();
    if values.is_empty() {
        return;
    }
    // pronglint: det-order — max in slice order (and max is associative).
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max <= 0.0 || max.is_nan() || !max.is_finite() {
        // Degenerate input: fall back to uniform.
        out.extend(std::iter::repeat_n(1.0 / values.len() as f64, values.len()));
        return;
    }
    out.extend(
        values
            .iter()
            .map(|&v| ((v / max).clamp(0.0, 1.0) * scale).exp()),
    );
    // pronglint: det-order — sums the exponentials in slice order.
    let total: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn update_initializes_then_blends() {
        let mut w = WeightVector::new(10, 0.5);
        w.update(3, 100.0);
        assert_eq!(w.get(3), 100.0);
        w.update(3, 200.0);
        assert_eq!(w.get(3), 150.0);
        assert_eq!(w.explored(), 1);
    }

    #[test]
    fn update_ignores_out_of_range_and_invalid() {
        let mut w = WeightVector::new(4, 0.3);
        w.update(4, 100.0);
        w.update(9, 100.0);
        w.update(0, f64::NAN);
        w.update(0, -5.0);
        assert_eq!(w.explored(), 0);
    }

    #[test]
    fn prob_map_prefers_unexplored() {
        let mut w = WeightVector::new(4, 0.3);
        w.update(0, 10_000.0);
        let map = w.prob_map(1e-3);
        // Slot 0 is explored (weight ~1e-4); slots 1..3 unexplored (1e3).
        assert!(map[1] > map[0] * 1e5);
        assert_eq!(map[1], map[2]);
    }

    #[test]
    fn checkpoint_draw_hits_unexplored_first() {
        let mut w = WeightVector::new(50, 0.3);
        for r in 0..49 {
            w.update(r, 10_000.0);
        }
        // Only slot 49 unexplored: it should be drawn essentially always.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut hits = 0;
        for _ in 0..200 {
            if w.sample_checkpoint_request(40, 20, 1e-3, &mut rng) == Some(49) {
                hits += 1;
            }
        }
        assert!(hits >= 198, "unexplored slot drawn only {hits}/200 times");
    }

    #[test]
    fn checkpoint_draw_respects_w_bound() {
        let w = WeightVector::new(10, 0.3);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(w.sample_checkpoint_request(10, 5, 1e-3, &mut rng), None);
        assert_eq!(w.sample_checkpoint_request(500, 5, 1e-3, &mut rng), None);
        for _ in 0..100 {
            let r = w.sample_checkpoint_request(7, 10, 1e-3, &mut rng).unwrap();
            assert!((7..10).contains(&r));
        }
    }

    #[test]
    fn fully_explored_draw_prefers_fast_requests() {
        let mut w = WeightVector::new(10, 0.3);
        for r in 0..10 {
            // Slot 5 is 50x faster than the rest.
            w.update(r, if r == 5 { 1_000.0 } else { 50_000.0 });
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..1_000 {
            if w.sample_checkpoint_request(0, 9, 1e-3, &mut rng) == Some(5) {
                hits += 1;
            }
        }
        // Weight of slot 5 is ~50/59 of the mass.
        assert!(hits > 700, "fast slot drawn {hits}/1000");
    }

    #[test]
    fn lifetime_weight_averages_inverse_latency_inclusively() {
        let mut w = WeightVector::new(4, 0.3);
        for r in 0..4 {
            w.update(r, 1_000.0);
        }
        // Inclusive window [0, 3]: four slots, all at 1/1000.
        let lw = w.lifetime_weight(0, 3, 0.0);
        assert!((lw - 1e-3).abs() < 1e-12);
        // Window past the end clamps to the last slot.
        let lw_tail = w.lifetime_weight(3, 10, 0.0);
        assert!((lw_tail - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn lifetime_weight_keeps_frontier_snapshots_hot() {
        // Slot 3 unexplored: a snapshot at r0=2 with beta=1 covers the
        // inclusive window [2, 3], so it still carries ~1/µ weight.
        let mut w = WeightVector::new(5, 0.3);
        for r in 0..3 {
            w.update(r, 1_000.0);
        }
        let frontier = w.lifetime_weight(2, 1, 1e-3);
        let interior = w.lifetime_weight(0, 1, 1e-3);
        assert!(frontier > interior * 1_000.0, "{frontier} vs {interior}");
    }

    #[test]
    fn lifetime_latency_is_mean_theta_inclusive() {
        let mut w = WeightVector::new(4, 0.3);
        w.update(0, 100.0);
        w.update(1, 300.0);
        w.update(2, 200.0);
        // Inclusive window [0, 2]: (100 + 300 + 200) / 3.
        assert_eq!(w.lifetime_latency(0, 2), 200.0);
    }

    #[test]
    fn weighted_draw_is_proportional() {
        let mut rng = SmallRng::seed_from_u64(4);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[weighted_draw(&weights, &mut rng).unwrap()] += 1;
        }
        let frac = counts[1] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn weighted_draw_handles_degenerate_input() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(weighted_draw(&[], &mut rng), None);
        assert_eq!(weighted_draw(&[0.0, 0.0], &mut rng), None);
        assert_eq!(weighted_draw(&[f64::NAN], &mut rng), None);
        // Mixed: only positive-weight entries can be drawn.
        for _ in 0..50 {
            assert_eq!(weighted_draw(&[0.0, 2.0, f64::NAN], &mut rng), Some(1));
        }
    }

    #[test]
    fn softmax_is_a_distribution_favoring_the_max() {
        let probs = scaled_softmax(&[1e-4, 2e-4, 5e-5], 6.0);
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(probs[1] > probs[0] && probs[0] > probs[2]);
        // Meaningful discrimination despite tiny raw weights.
        assert!(probs[1] / probs[2] > 5.0);
    }

    #[test]
    fn softmax_handles_degenerate_input() {
        assert!(scaled_softmax(&[], 6.0).is_empty());
        let uniform = scaled_softmax(&[0.0, 0.0], 6.0);
        assert_eq!(uniform, vec![0.5, 0.5]);
        let with_inf = scaled_softmax(&[f64::INFINITY, 1.0], 6.0);
        assert_eq!(with_inf, vec![0.5, 0.5]);
    }

    #[test]
    fn scratch_variants_match_allocating_variants() {
        let mut w = WeightVector::new(64, 0.3);
        for r in 0..40 {
            w.update(r, 1_000.0 + (r as f64) * 37.0);
        }
        // prob_map.
        let mut buf = vec![99.0; 3]; // polluted scratch
        w.prob_map_into(1e-3, &mut buf);
        assert_eq!(buf, w.prob_map(1e-3));
        // softmax, including the degenerate branches.
        for values in [vec![1e-4, 2e-4, 5e-5], vec![0.0, 0.0], vec![]] {
            let mut out = vec![7.0];
            scaled_softmax_into(&values, 6.0, &mut out);
            assert_eq!(out, scaled_softmax(&values, 6.0));
        }
        // checkpoint draw: identical RNG stream, identical draws.
        let mut scratch = DecisionScratch::new();
        let mut rng_a = SmallRng::seed_from_u64(77);
        let mut rng_b = SmallRng::seed_from_u64(77);
        for start in 0..60 {
            let a = w.sample_checkpoint_request(start, 10, 1e-3, &mut rng_a);
            let b = w.sample_checkpoint_request_with(&mut scratch, start, 10, 1e-3, &mut rng_b);
            assert_eq!(a, b, "diverged at start {start}");
        }
    }

    #[test]
    fn softmax_sends_unexplored_weight_to_one() {
        // An unexplored snapshot (weight 1/µ = 1e3) against explored ones
        // (~1e-4): softmax must overwhelmingly prefer the unexplored.
        let probs = scaled_softmax(&[1e-4, 1e3, 9e-5], 6.0);
        assert!(probs[1] > 0.98, "unexplored prob {}", probs[1]);
    }
}
