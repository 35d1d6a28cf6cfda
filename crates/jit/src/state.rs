//! Snapshotting the runtime: the [`Checkpointable`] implementation.
//!
//! A snapshot must capture everything that makes a warm runtime warm: the
//! static profiles (so a snapshot is self-contained), every method's tier
//! and profile counters, the in-flight compile queue, the code cache
//! occupancy, the lineage request counter, and whether lazy initialization
//! has been paid. A restored runtime continues optimizing exactly where
//! the checkpointed one left off — the property the whole paper relies on.
//!
//! The modeled process-image size grows with installed machine code, which
//! is what makes later (more optimized) snapshots slightly larger, echoing
//! Table 4's per-benchmark size differences.

use crate::compile::CompileQueue;
use crate::method::MethodState;
use crate::profile::{MethodProfile, RuntimeProfile};
use crate::runtime::Runtime;
use pronghorn_checkpoint::codec::{CodecError, Decoder, Encoder};
use pronghorn_checkpoint::Checkpointable;

impl Checkpointable for Runtime {
    fn encode_state(&self, enc: &mut Encoder) {
        self.profile.encode(enc);
        enc.put_seq(&self.method_profiles, |e, m| m.encode(e));
        enc.put_seq(&self.methods, |e, m| m.encode(e));
        self.queue.encode(enc);
        enc.put_u64(self.code_cache_used);
        enc.put_u64(self.requests_executed);
        enc.put_bool(self.lazy_initialized);
        enc.put_u64(self.state_version);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let profile = RuntimeProfile::decode(dec)?;
        let method_profiles = dec.take_seq(8, MethodProfile::decode)?;
        let methods = dec.take_seq(8, MethodState::decode)?;
        if methods.len() != method_profiles.len() {
            return Err(CodecError::LengthOutOfBounds {
                declared: methods.len() as u64,
                remaining: method_profiles.len(),
            });
        }
        let queue = CompileQueue::decode(dec)?;
        Ok(Runtime {
            profile,
            method_profiles,
            methods,
            queue,
            code_cache_used: dec.take_u64()?,
            requests_executed: dec.take_u64()?,
            lazy_initialized: dec.take_bool()?,
            state_version: dec.take_u64()?,
        })
    }

    fn image_size_bytes(&self) -> u64 {
        let code = self.code_cache_used as f64 * self.profile.image_bytes_per_code_byte;
        let profiles = self.method_profiles.len() as u64 * 48 * 1024;
        self.profile.base_image_bytes + code as u64 + profiles
    }
}

#[cfg(test)]
mod tests {
    use crate::profile::{MethodProfile, RuntimeProfile};
    use crate::request::{MethodWork, RequestWork};
    use crate::runtime::Runtime;
    use pronghorn_checkpoint::codec::{Decoder, Encoder};
    use pronghorn_checkpoint::{Checkpointable, CodecStats, SimCriuEngine, SnapshotMeta};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn methods() -> Vec<MethodProfile> {
        vec![
            MethodProfile::new("a").calls_per_request(20.0),
            MethodProfile::new("b").calls_per_request(2.0),
        ]
    }

    fn work() -> RequestWork {
        RequestWork::new(vec![
            MethodWork {
                method: 0,
                units: 500.0,
                calls: 20.0,
            },
            MethodWork {
                method: 1,
                units: 500.0,
                calls: 2.0,
            },
        ])
    }

    fn warm_runtime(n: usize) -> Runtime {
        let mut rng = SmallRng::seed_from_u64(42);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::jvm(), methods(), &mut rng);
        rt.execute_n(&work(), n, &mut rng);
        rt
    }

    #[test]
    fn state_round_trips_exactly() {
        let rt = warm_runtime(1_000);
        let mut enc = Encoder::new();
        rt.encode_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = Runtime::decode_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(restored, rt);
        assert_eq!(restored.requests_executed(), 1_000);
        assert!(restored.lazy_initialized());
    }

    #[test]
    fn restored_runtime_continues_from_snapshot() {
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let rt = warm_runtime(500);
        let tiers_before: Vec<_> = rt.method_states().iter().map(|m| m.tier).collect();
        let (snap, _, _) = engine.checkpoint(
            &mut CodecStats::default(),
            &mut rng,
            &rt,
            SnapshotMeta {
                function: "t".into(),
                request_number: 500,
                runtime: "jvm".into(),
            },
            None,
        );
        let (mut restored, _): (Runtime, _) = engine.restore(&mut rng, &snap).unwrap();
        let tiers_after: Vec<_> = restored.method_states().iter().map(|m| m.tier).collect();
        assert_eq!(tiers_before, tiers_after);
        // A restored runtime skips lazy init entirely.
        let first = restored.execute(&work(), &mut rng);
        assert_eq!(first.lazy_init_us, 0.0);
        assert_eq!(restored.requests_executed(), 501);
    }

    #[test]
    fn state_version_tracks_mutations() {
        let mut rt = warm_runtime(100);
        let v = rt.state_version();
        assert!(v > 0, "100 executed requests must have bumped the version");
        // No mutation, no bump: encoding is read-only.
        let mut enc = Encoder::new();
        rt.encode_state(&mut enc);
        assert_eq!(rt.state_version(), v);
        // Any further request bumps it.
        let mut rng = SmallRng::seed_from_u64(1);
        rt.execute(&work(), &mut rng);
        assert!(rt.state_version() > v);
        // Equal versions come with equal encoded bytes (round-trip).
        let mut enc2 = Encoder::new();
        rt.encode_state(&mut enc2);
        let mut enc3 = Encoder::new();
        rt.encode_state(&mut enc3);
        assert_eq!(enc2.as_bytes(), enc3.as_bytes());
    }

    #[test]
    fn image_grows_as_code_is_compiled() {
        let cold = warm_runtime(0);
        let warm = warm_runtime(20_000);
        assert!(warm.image_size_bytes() > cold.image_size_bytes());
    }

    #[test]
    fn jvm_image_lands_in_table4_band() {
        let warm = warm_runtime(20_000);
        let mb = warm.image_size_bytes() as f64 / (1024.0 * 1024.0);
        assert!((9.0..=16.0).contains(&mb), "jvm image {mb} MB");
    }

    #[test]
    fn pypy_image_lands_in_table4_band() {
        let mut rng = SmallRng::seed_from_u64(17);
        let (mut rt, _) = Runtime::cold_start(RuntimeProfile::pypy(), methods(), &mut rng);
        rt.execute_n(&work(), 10_000, &mut rng);
        let mb = rt.image_size_bytes() as f64 / (1024.0 * 1024.0);
        assert!((50.0..=70.0).contains(&mb), "pypy image {mb} MB");
    }

    #[test]
    fn mismatched_profile_and_state_counts_rejected() {
        let rt = warm_runtime(10);
        let mut enc = Encoder::new();
        // Hand-encode with a truncated method-state list.
        rt.profile().encode(&mut enc);
        enc.put_seq(rt.method_profiles(), |e, m| m.encode(e));
        enc.put_seq(&rt.method_states()[..1], |e, m| m.encode(e));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(Runtime::decode_state(&mut dec).is_err());
    }
}
