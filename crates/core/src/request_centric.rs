//! Algorithm 1: the request-centric orchestration policy.

use crate::config::{PolicyConfig, SelectionStrategy};
use crate::error::ConfigError;
use crate::policy::{Policy, PolicyKind, StartDecision};
use crate::pool::{PoolEntry, SnapshotPool};
use crate::weights::{scaled_softmax_into, weighted_draw, DecisionScratch, WeightVector};
use pronghorn_checkpoint::SnapshotId;
use rand::RngCore;

/// Pronghorn's request-centric policy (see the crate docs for the
/// algorithm walk-through).
#[derive(Debug, Clone)]
pub struct RequestCentricPolicy {
    config: PolicyConfig,
    weights: WeightVector,
    pool: SnapshotPool,
    /// Reused across decisions: no per-draw allocation on the hot path.
    scratch: DecisionScratch,
    /// Pooled snapshots with a recorded working-set manifest; only
    /// consulted when `config.restore_penalty_us > 0`.
    prefetch_ready: std::collections::BTreeSet<u64>,
}

impl RequestCentricPolicy {
    /// Creates the policy with zero knowledge and an empty pool.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — a deployment configuration
    /// bug that must fail at startup. Callers that want to surface the
    /// [`ConfigError`] instead should use [`Self::try_new`].
    pub fn new(config: PolicyConfig) -> Self {
        match Self::try_new(config) {
            Ok(policy) => policy,
            // pronglint: allow(panic-path): documented fail-at-startup
            // contract; fallible construction is Self::try_new.
            Err(e) => panic!("invalid policy config: {e}"),
        }
    }

    /// Fallible construction: validates `config` and returns the typed
    /// error instead of panicking.
    pub fn try_new(config: PolicyConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(RequestCentricPolicy {
            weights: WeightVector::new(config.w, config.alpha),
            pool: SnapshotPool::new(config.capacity),
            scratch: DecisionScratch::new(),
            prefetch_ready: std::collections::BTreeSet::new(),
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The snapshot pool.
    pub fn pool(&self) -> &SnapshotPool {
        &self.pool
    }

    /// `GetSnapshotWeights`: average lifetime weight per pooled snapshot,
    /// written into the reusable scratch buffer.
    ///
    /// Weights are inverse expected latency (`1/(θ̄+µ)`), so a restore
    /// penalty `P` µs for snapshots without a recorded working set folds
    /// in *harmonically*: `w → w / (1 + P·w) = 1/(θ̄+µ+P)`. Penalizing a
    /// snapshot only relative to prefetch-ready peers keeps the zero-
    /// penalty configuration bit-identical to the unpenalized policy.
    fn fill_snapshot_weights(
        weights: &WeightVector,
        pool: &SnapshotPool,
        config: &PolicyConfig,
        prefetch_ready: &std::collections::BTreeSet<u64>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(pool.entries().iter().map(|e| {
            let w = weights.lifetime_weight(e.request_number, config.beta, config.mu);
            if config.restore_penalty_us > 0.0 && !prefetch_ready.contains(&e.id.0) {
                w / (1.0 + config.restore_penalty_us * w)
            } else {
                w
            }
        }));
    }
}

impl Policy for RequestCentricPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RequestCentric
    }

    fn on_worker_start(&mut self, rng: &mut dyn RngCore) -> StartDecision {
        if self.pool.is_empty() {
            return StartDecision::Cold;
        }
        // Split borrows: scratch is refilled while weights/pool are read.
        let RequestCentricPolicy {
            config,
            weights,
            pool,
            scratch,
            prefetch_ready,
            ..
        } = self;
        Self::fill_snapshot_weights(weights, pool, config, prefetch_ready, &mut scratch.weights);
        let picked = match config.selection {
            // Part 2 (the paper): softmax over snapshot weights, then draw.
            SelectionStrategy::Softmax => {
                scaled_softmax_into(&scratch.weights, config.softmax_scale, &mut scratch.probs);
                weighted_draw(&scratch.probs, rng)
            }
            // Ablation: pure exploitation.
            SelectionStrategy::Greedy => scratch
                .weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i),
            // Ablation: pure exploration.
            SelectionStrategy::Uniform => {
                use rand::Rng as _;
                Some(rng.gen_range(0..pool.len()))
            }
        };
        match picked {
            Some(idx) => StartDecision::Restore(self.pool.entries()[idx].id),
            None => StartDecision::Cold,
        }
    }

    fn plan_checkpoint(&mut self, start_request: u32, rng: &mut dyn RngCore) -> Option<u32> {
        // Part 1: draw from the clipped probability map over the worker's
        // expected lifetime.
        self.weights.sample_checkpoint_request_with(
            &mut self.scratch,
            start_request,
            self.config.beta,
            self.config.mu,
            rng,
        )
    }

    fn record_latency(&mut self, request_number: u32, latency_us: f64) {
        // Part 3: EWMA knowledge update.
        self.weights.update(request_number, latency_us);
    }

    fn on_snapshot_taken(&mut self, entry: PoolEntry, rng: &mut dyn RngCore) -> Vec<PoolEntry> {
        // Part 4 fires inside insert when capacity is exceeded.
        let weights = &self.weights;
        let (beta, mu) = (self.config.beta, self.config.mu);
        let evicted = self.pool.insert(
            entry,
            self.config.keep_top_frac,
            self.config.keep_random_frac,
            |e| weights.lifetime_weight(e.request_number, beta, mu),
            rng,
        );
        for e in &evicted {
            self.prefetch_ready.remove(&e.id.0);
        }
        evicted
    }

    fn snapshot_request_number(&self, id: SnapshotId) -> Option<u32> {
        self.pool.get(id).map(|e| e.request_number)
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn theta(&self) -> Option<&WeightVector> {
        Some(&self.weights)
    }

    fn note_prefetch_ready(&mut self, id: SnapshotId) {
        if self.pool.get(id).is_some() {
            self.prefetch_ready.insert(id.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config() -> PolicyConfig {
        PolicyConfig::paper_pypy().with_beta(4)
    }

    fn entry(id: u64, r: u32) -> PoolEntry {
        PoolEntry {
            id: SnapshotId(id),
            request_number: r,
            size_bytes: 1024,
        }
    }

    #[test]
    fn empty_pool_cold_starts() {
        let mut p = RequestCentricPolicy::new(config());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(p.on_worker_start(&mut rng), StartDecision::Cold);
    }

    #[test]
    fn restores_once_pool_has_snapshots() {
        let mut p = RequestCentricPolicy::new(config());
        let mut rng = SmallRng::seed_from_u64(2);
        p.on_snapshot_taken(entry(1, 0), &mut rng);
        match p.on_worker_start(&mut rng) {
            StartDecision::Restore(id) => assert_eq!(id, SnapshotId(1)),
            other => panic!("expected restore, got {other:?}"),
        }
        assert_eq!(p.snapshot_request_number(SnapshotId(1)), Some(0));
    }

    #[test]
    fn checkpoint_plan_explores_the_request_range() {
        let mut p = RequestCentricPolicy::new(config());
        let mut rng = SmallRng::seed_from_u64(3);
        // With all slots unexplored, draws must cover [0, beta] uniformly-ish.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(p.plan_checkpoint(0, &mut rng).unwrap());
        }
        assert!(seen.len() >= 4, "draws {seen:?}");
        assert!(seen.iter().all(|&r| r <= 4));
    }

    #[test]
    fn no_checkpoint_beyond_w() {
        let mut p = RequestCentricPolicy::new(config());
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(p.plan_checkpoint(100, &mut rng), None);
        assert_eq!(p.plan_checkpoint(5_000, &mut rng), None);
    }

    #[test]
    fn converged_policy_prefers_best_snapshot() {
        let mut p = RequestCentricPolicy::new(config());
        let mut rng = SmallRng::seed_from_u64(5);
        // Fully explore: requests 0..99, with [40, 44) the fast region.
        for r in 0..100 {
            let lat = if (40..44).contains(&r) {
                1_000.0
            } else {
                60_000.0
            };
            p.record_latency(r, lat);
        }
        p.on_snapshot_taken(entry(1, 0), &mut rng);
        p.on_snapshot_taken(entry(2, 40), &mut rng);
        p.on_snapshot_taken(entry(3, 90), &mut rng);
        let mut hits = 0;
        for _ in 0..500 {
            if p.on_worker_start(&mut rng) == StartDecision::Restore(SnapshotId(2)) {
                hits += 1;
            }
        }
        assert!(hits > 400, "best snapshot chosen {hits}/500");
        // But exploration persists: other snapshots are still chosen
        // occasionally ("even snapshots that have high lifetime latencies
        // will still be restored from, albeit less often").
        assert!(hits < 500, "softmax degenerated to argmax");
    }

    #[test]
    fn pool_capacity_is_enforced_with_eviction() {
        let mut p = RequestCentricPolicy::new(config().with_capacity(3));
        let mut rng = SmallRng::seed_from_u64(6);
        let mut evicted_total = 0;
        for i in 0..10 {
            evicted_total += p
                .on_snapshot_taken(entry(100 + i, i as u32 * 7), &mut rng)
                .len();
        }
        assert!(p.pool_len() <= 3);
        assert_eq!(evicted_total + p.pool_len(), 10);
    }

    #[test]
    fn theta_borrows_the_live_weights() {
        let mut p = RequestCentricPolicy::new(config());
        p.record_latency(5, 1234.0);
        // An ignored sample (past W) leaves θ as it was.
        p.record_latency(10_000, 99.0);
        let theta = p.theta().unwrap();
        assert_eq!(theta.get(5), 1234.0);
        assert_eq!(theta.explored(), 1);
        assert!(crate::ColdStartPolicy.theta().is_none());
    }

    #[test]
    fn greedy_selection_always_picks_the_best() {
        let mut p = RequestCentricPolicy::new(config().with_selection(SelectionStrategy::Greedy));
        let mut rng = SmallRng::seed_from_u64(7);
        for r in 0..100 {
            let lat = if r == 50 { 1_000.0 } else { 80_000.0 };
            p.record_latency(r, lat);
        }
        p.on_snapshot_taken(entry(1, 10), &mut rng);
        p.on_snapshot_taken(entry(2, 50), &mut rng);
        for _ in 0..50 {
            assert_eq!(
                p.on_worker_start(&mut rng),
                StartDecision::Restore(SnapshotId(2))
            );
        }
    }

    #[test]
    fn uniform_selection_spreads_over_the_pool() {
        let mut p = RequestCentricPolicy::new(config().with_selection(SelectionStrategy::Uniform));
        let mut rng = SmallRng::seed_from_u64(8);
        for r in 0..100 {
            p.record_latency(r, 10_000.0);
        }
        for i in 0..4 {
            p.on_snapshot_taken(entry(i, i as u32 * 10), &mut rng);
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            if let StartDecision::Restore(id) = p.on_worker_start(&mut rng) {
                seen.insert(id);
            }
        }
        assert_eq!(seen.len(), 4, "uniform selection missed pool entries");
    }

    #[test]
    fn restore_penalty_prefers_prefetch_ready_snapshots() {
        // Two snapshots at the same request number have identical lifetime
        // weights; under a restore penalty, the one with a recorded
        // working set must win a greedy selection.
        let mut p = RequestCentricPolicy::new(
            config()
                .with_selection(SelectionStrategy::Greedy)
                .with_restore_penalty(50_000.0),
        );
        let mut rng = SmallRng::seed_from_u64(9);
        for r in 0..100 {
            p.record_latency(r, 20_000.0);
        }
        p.on_snapshot_taken(entry(1, 10), &mut rng);
        p.on_snapshot_taken(entry(2, 10), &mut rng);
        p.note_prefetch_ready(SnapshotId(2));
        assert_eq!(
            p.on_worker_start(&mut rng),
            StartDecision::Restore(SnapshotId(2))
        );
        // Marking an unpooled snapshot is a no-op.
        p.note_prefetch_ready(SnapshotId(99));
        // Zero penalty ignores readiness entirely: both weights are equal
        // again, and greedy max_by returns the last maximal entry either way.
        let mut q = RequestCentricPolicy::new(config().with_selection(SelectionStrategy::Greedy));
        for r in 0..100 {
            q.record_latency(r, 20_000.0);
        }
        q.on_snapshot_taken(entry(1, 10), &mut rng);
        q.on_snapshot_taken(entry(2, 10), &mut rng);
        q.note_prefetch_ready(SnapshotId(2));
        assert!(matches!(
            q.on_worker_start(&mut rng),
            StartDecision::Restore(_)
        ));
    }

    #[test]
    #[should_panic(expected = "invalid policy config")]
    fn invalid_config_panics_at_construction() {
        let mut c = config();
        c.mu = -1.0;
        let _ = RequestCentricPolicy::new(c);
    }

    #[test]
    fn try_new_surfaces_the_typed_error() {
        let mut c = config();
        c.mu = -1.0;
        assert_eq!(
            RequestCentricPolicy::try_new(c).err(),
            Some(ConfigError::InvalidMu { mu: -1.0 })
        );
        assert!(RequestCentricPolicy::try_new(config()).is_ok());
    }
}
