//! Property-based tests for the policy's data structures.

#![forbid(unsafe_code)]

use pronghorn_checkpoint::SnapshotId;
use pronghorn_core::pool::{PoolEntry, SnapshotPool};
use pronghorn_core::weights::{scaled_softmax, weighted_draw, WeightVector};
use pronghorn_core::{Policy, PolicyConfig, RequestCentricPolicy, StartDecision};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// θ slots always stay within the hull of the samples folded into them.
    #[test]
    fn theta_stays_in_sample_hull(
        samples in prop::collection::vec((0u32..50, 1.0f64..1e6), 1..300),
        alpha in 0.01f64..1.0,
    ) {
        let mut w = WeightVector::new(50, alpha);
        let mut lo = vec![f64::INFINITY; 50];
        let mut hi = vec![0.0f64; 50];
        for (r, lat) in samples {
            w.update(r, lat);
            let r = r as usize;
            lo[r] = lo[r].min(lat);
            hi[r] = hi[r].max(lat);
        }
        for r in 0..50u32 {
            let v = w.get(r);
            if hi[r as usize] > 0.0 {
                prop_assert!(v >= lo[r as usize] * (1.0 - 1e-12));
                prop_assert!(v <= hi[r as usize] * (1.0 + 1e-12));
            } else {
                prop_assert_eq!(v, 0.0);
            }
        }
    }

    /// Checkpoint draws always land inside the permitted window.
    #[test]
    fn checkpoint_draws_stay_in_window(
        explored in prop::collection::vec((0u32..100, 1.0f64..1e6), 0..120),
        start in 0u32..120,
        beta in 1u32..40,
        seed in any::<u64>(),
    ) {
        let mut w = WeightVector::new(100, 0.3);
        for (r, lat) in explored {
            w.update(r, lat);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        match w.sample_checkpoint_request(start, beta, 1e-3, &mut rng) {
            None => prop_assert!(start >= 100),
            Some(r) => {
                prop_assert!(r >= start);
                prop_assert!(r <= start.saturating_add(beta));
                prop_assert!(r < 100);
            }
        }
    }

    /// The softmax is always a probability distribution.
    #[test]
    fn softmax_is_normalized(values in prop::collection::vec(0.0f64..1e9, 1..64), scale in 0.5f64..12.0) {
        let probs = scaled_softmax(&values, scale);
        prop_assert_eq!(probs.len(), values.len());
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Weighted draws only return indices with positive weight.
    #[test]
    fn weighted_draw_respects_support(
        weights in prop::collection::vec(prop_oneof![Just(0.0), 0.001f64..100.0], 1..64),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        match weighted_draw(&weights, &mut rng) {
            None => prop_assert!(weights.iter().all(|&w| w == 0.0)),
            Some(i) => prop_assert!(weights[i] > 0.0),
        }
    }

    /// The pool never exceeds capacity and never loses the globally best
    /// snapshot (the top-p retention always includes the maximum weight).
    #[test]
    fn pool_keeps_best_and_respects_capacity(
        requests in prop::collection::vec(0u32..200, 1..60),
        capacity in 1usize..16,
        p in 0.05f64..1.0,
        gamma in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut pool = SnapshotPool::new(capacity);
        let mut rng = SmallRng::seed_from_u64(seed);
        for (i, &r) in requests.iter().enumerate() {
            let entry = PoolEntry {
                id: SnapshotId(i as u64),
                request_number: r,
                size_bytes: 1,
            };
            // Weight = request number: "later is better".
            let best_before = pool
                .entries()
                .iter()
                .map(|e| e.request_number)
                .chain(std::iter::once(r))
                .max()
                .unwrap();
            pool.insert(entry, p, gamma, |e| f64::from(e.request_number), &mut rng);
            prop_assert!(pool.len() <= capacity);
            let best_after = pool.entries().iter().map(|e| e.request_number).max().unwrap();
            prop_assert_eq!(best_after, best_before, "best snapshot evicted");
        }
    }

    /// End-to-end policy liveness: under any latency feedback, a policy
    /// with snapshots keeps restoring (never deadlocks into cold starts),
    /// and its checkpoint plans stay legal.
    #[test]
    fn policy_stays_live_under_arbitrary_feedback(
        latencies in prop::collection::vec(1.0f64..1e7, 30..120),
        seed in any::<u64>(),
        beta in 1u32..8,
    ) {
        let mut policy = RequestCentricPolicy::new(
            PolicyConfig::paper_pypy().with_beta(beta).with_capacity(6),
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut next_id = 0u64;
        let mut lineage = 0u32;
        for lat in latencies {
            let start = policy.on_worker_start(&mut rng);
            let resume = match start {
                StartDecision::Cold => 0,
                StartDecision::Restore(id) => {
                    let r = policy.snapshot_request_number(id);
                    prop_assert!(r.is_some(), "restored unknown snapshot");
                    r.unwrap()
                }
            };
            let plan = policy.plan_checkpoint(resume, &mut rng);
            if let Some(at) = plan {
                prop_assert!(at >= resume && at <= resume + beta);
            }
            policy.record_latency(resume, lat);
            lineage = lineage.max(resume + 1);
            if let Some(at) = plan {
                let snap_at = at.clamp(resume, resume + 1);
                policy.on_snapshot_taken(
                    PoolEntry { id: SnapshotId(next_id), request_number: snap_at, size_bytes: 1 },
                    &mut rng,
                );
                next_id += 1;
            }
            prop_assert!(policy.pool_len() <= 6);
        }
        // After the first checkpoint the pool is never empty again.
        if next_id > 0 {
            prop_assert!(policy.pool_len() >= 1);
            prop_assert!(matches!(
                policy.on_worker_start(&mut rng),
                StartDecision::Restore(_)
            ));
        }
    }
}
