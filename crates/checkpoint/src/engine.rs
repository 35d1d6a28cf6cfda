//! The pluggable checkpoint engine.
//!
//! Pronghorn's Orchestrator "calls the Checkpoint Engine" to snapshot the
//! function process and to restore one (§3.2 steps 5–6). The engine here is
//! the simulation's CRIU: it serializes any [`Checkpointable`] process into
//! a [`Snapshot`] and reconstitutes it, reporting how much virtual time the
//! operation would have cost under the Table 4 model.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::cost::CheckpointCostModel;
use crate::delta::{
    diff_payload, CheckpointOutcome, DeltaBase, SnapshotDelta, PAYLOAD_DIFF_PAGE_SIZE,
};
use crate::snapshot::{Snapshot, SnapshotMeta};
use crate::stats::CodecStats;
use bytes::Bytes;
use pronghorn_sim::SimDuration;
use rand::Rng;
use std::time::Instant;

/// A process whose state can be checkpointed and restored.
///
/// Implementors serialize *all* state that survives a restore — for the
/// JIT runtime simulator that is the per-method tier state, profiling
/// counters, compile queue, and code cache.
pub trait Checkpointable: Sized {
    /// Serializes the full process state.
    fn encode_state(&self, enc: &mut Encoder);

    /// Reconstructs a process from serialized state.
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// Modeled size in bytes of the process image a real engine would dump
    /// (heap + code cache + runtime metadata), after compression.
    fn image_size_bytes(&self) -> u64;
}

/// The simulated CRIU engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCriuEngine {
    /// Timing model applied to every operation.
    pub costs: CheckpointCostModel,
}

impl SimCriuEngine {
    /// Creates an engine with the default (Table 4) cost model.
    pub fn new() -> Self {
        SimCriuEngine::default()
    }

    /// Checkpoints `process`, adding the encode's counts to `codec`, and
    /// returns the snapshot, what to persist, and the worker downtime the
    /// operation cost (§5.3: "a brief worker downtime on the order of
    /// 60–105 ms").
    ///
    /// When `base` names a parent snapshot, the result is additionally
    /// expressed as a page delta against it: the full [`Snapshot`] is
    /// still returned (the pool and restore paths reason about composed
    /// state), alongside a [`CheckpointOutcome`] telling the caller what
    /// to *persist* — the whole payload, or only the changed pages plus a
    /// parent reference. The delta arm charges
    /// [`CheckpointCostModel::sample_delta_checkpoint_us`] on the base's
    /// dirty nominal bytes instead of the full-image cost.
    ///
    /// Both arms draw identical randomness (one nonce, then one cost
    /// sample), so toggling delta checkpointing never shifts the RNG
    /// stream of a seeded run — the property the `full_invariance` golden
    /// pins. The nonce keeps ids unique even for byte-identical states:
    /// identical lineages checkpointed at the same request number must not
    /// collide in the snapshot pool.
    pub fn checkpoint<T, R>(
        &self,
        codec: &mut CodecStats,
        rng: &mut R,
        process: &T,
        meta: SnapshotMeta,
        base: Option<&DeltaBase<'_>>,
    ) -> (Snapshot, CheckpointOutcome, SimDuration)
    where
        T: Checkpointable,
        R: Rng + ?Sized,
    {
        // pronglint: allow(wall-clock): host-side perf counter (encode_ns);
        // measures real encoder time, never feeds a sim decision.
        let started = Instant::now();
        let mut enc = Encoder::new();
        process.encode_state(&mut enc);
        codec.encodes += 1;
        codec.bytes_encoded += enc.len() as u64;
        let payload = Bytes::from(enc.into_bytes());
        codec.encode_ns += started.elapsed().as_nanos() as u64;
        let nominal = process.image_size_bytes();
        let nonce: u64 = rng.gen();
        // pronglint: allow(wall-clock): host-side perf counter (checksum_ns);
        // measures real hashing time, never feeds a sim decision.
        let hashed = Instant::now();
        let snapshot = Snapshot::with_nonce(meta, payload, nominal, nonce);
        codec.checksum_ns += hashed.elapsed().as_nanos() as u64;
        match base {
            None => {
                let cost = self.costs.sample_checkpoint_us(rng, nominal);
                (
                    snapshot,
                    CheckpointOutcome::Full,
                    SimDuration::from_micros_f64(cost),
                )
            }
            Some(base) => {
                let pages = diff_payload(
                    base.parent.payload(),
                    snapshot.payload(),
                    PAYLOAD_DIFF_PAGE_SIZE,
                );
                let page_count = snapshot
                    .payload()
                    .len()
                    .div_ceil(PAYLOAD_DIFF_PAGE_SIZE as usize);
                let delta = SnapshotDelta {
                    parent: base.parent.id,
                    parent_payload_hash: base.parent.payload_hash(),
                    page_size: PAYLOAD_DIFF_PAGE_SIZE,
                    total_len: snapshot.payload().len() as u64,
                    pages,
                    dirty_nominal_bytes: base.dirty_nominal_bytes,
                };
                codec.delta_encodes += 1;
                codec.delta_pages_written += delta.pages.len() as u64;
                codec.delta_pages_total += page_count as u64;
                codec.delta_bytes_written += delta.payload_bytes();
                let cost = self
                    .costs
                    .sample_delta_checkpoint_us(rng, base.dirty_nominal_bytes);
                (
                    snapshot,
                    CheckpointOutcome::Delta(delta),
                    SimDuration::from_micros_f64(cost),
                )
            }
        }
    }

    /// Restores a process from `snapshot`, returning it and the restore
    /// latency experienced by the cold-path of the new worker.
    pub fn restore<T, R>(
        &self,
        rng: &mut R,
        snapshot: &Snapshot,
    ) -> Result<(T, SimDuration), CodecError>
    where
        T: Checkpointable,
        R: Rng + ?Sized,
    {
        let process = self.restore_mapped(snapshot)?;
        let cost = self.costs.sample_restore_us(rng, snapshot.nominal_size);
        Ok((process, SimDuration::from_micros_f64(cost)))
    }

    /// Decodes a process from `snapshot` without charging restore time —
    /// the entry point for page-granular lazy restore, where the clock
    /// cost is modelled per mapped/faulted page by the caller instead of
    /// as one up-front draw. Consumes no RNG, so the engine's cost stream
    /// stays in lockstep with eager runs that never call this.
    pub fn restore_mapped<T>(&self, snapshot: &Snapshot) -> Result<T, CodecError>
    where
        T: Checkpointable,
    {
        let mut dec = Decoder::new(snapshot.payload());
        let process = T::decode_state(&mut dec)?;
        dec.finish()?;
        Ok(process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameError, Stored};
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    /// A toy process for engine tests.
    #[derive(Debug, Clone, PartialEq)]
    struct Counter {
        value: u64,
        history: Vec<f64>,
    }

    impl Checkpointable for Counter {
        fn encode_state(&self, enc: &mut Encoder) {
            enc.put_u64(self.value);
            enc.put_f64_slice(&self.history);
        }

        fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
            Ok(Counter {
                value: dec.take_u64()?,
                history: dec.take_f64_vec()?,
            })
        }

        fn image_size_bytes(&self) -> u64 {
            10 * 1024 * 1024
        }
    }

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            function: "counter".into(),
            request_number: 9,
            runtime: "toy".into(),
        }
    }

    /// A full checkpoint of `process`, its counts discarded.
    fn full<T: Checkpointable>(
        engine: &SimCriuEngine,
        rng: &mut SmallRng,
        process: &T,
    ) -> (Snapshot, SimDuration) {
        let (snap, _, cost) =
            engine.checkpoint(&mut CodecStats::default(), rng, process, meta(), None);
        (snap, cost)
    }

    #[test]
    fn checkpoint_restore_round_trips_state() {
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let process = Counter {
            value: 41,
            history: vec![1.5, 2.5],
        };
        let (snap, ckpt_cost) = full(&engine, &mut rng, &process);
        assert!(ckpt_cost > SimDuration::ZERO);
        assert_eq!(snap.meta.request_number, 9);
        assert_eq!(snap.nominal_size, 10 * 1024 * 1024);
        let (restored, rest_cost): (Counter, _) = engine.restore(&mut rng, &snap).unwrap();
        assert!(rest_cost > SimDuration::ZERO);
        assert_eq!(restored, process);
    }

    #[test]
    fn checkpoint_with_matches_plain_checkpoint_exactly() {
        // A checkpoint that follows another process's checkpoint, counted
        // into the same counters, is exactly a first checkpoint: nothing
        // carries over between checkpoints but the counts.
        let engine = SimCriuEngine::new();
        let process = Counter {
            value: 41,
            history: vec![1.5, 2.5],
        };
        let mut rng_a = SmallRng::seed_from_u64(21);
        let (plain, cost_a) = full(&engine, &mut rng_a, &process);
        let mut codec = CodecStats::default();
        let other = Counter {
            value: 5,
            history: vec![9.0; 16],
        };
        engine.checkpoint(
            &mut codec,
            &mut SmallRng::seed_from_u64(0),
            &other,
            meta(),
            None,
        );
        let mut rng_b = SmallRng::seed_from_u64(21);
        let (used, outcome, cost_b) =
            engine.checkpoint(&mut codec, &mut rng_b, &process, meta(), None);
        assert!(matches!(outcome, CheckpointOutcome::Full));
        assert_eq!(codec.encodes, 2);
        assert_eq!(plain, used, "same seed must yield identical snapshots");
        assert_eq!(cost_a, cost_b);
        // And the RNG streams stay in lockstep afterwards.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn delta_checkpoint_composes_back_and_keeps_rng_lockstep() {
        let engine = SimCriuEngine::new();
        let parent_process = Counter {
            value: 41,
            history: vec![1.5, 2.5],
        };
        let mut codec = CodecStats::default();
        let mut rng = SmallRng::seed_from_u64(31);
        let (parent, _, _) = engine.checkpoint(&mut codec, &mut rng, &parent_process, meta(), None);
        // The child mutates a little state on top of the parent.
        let child_process = Counter {
            value: 42,
            history: vec![1.5, 2.5],
        };
        let base = DeltaBase {
            parent: &parent,
            dirty_nominal_bytes: 2 * 1024 * 1024,
        };
        let mut rng_full = rng.clone();
        let (snap, outcome, cost) =
            engine.checkpoint(&mut codec, &mut rng, &child_process, meta(), Some(&base));
        let delta = match outcome {
            CheckpointOutcome::Delta(d) => d,
            CheckpointOutcome::Full => panic!("expected a delta outcome"),
        };
        // The delta re-applies onto the parent payload byte-exactly.
        let composed = crate::delta::apply(parent.payload(), &delta).unwrap();
        assert_eq!(composed, *snap.payload());
        assert_eq!(delta.parent, parent.id);
        assert_eq!(delta.parent_payload_hash, parent.payload_hash());
        assert_eq!(codec.delta_encodes, 1);
        assert_eq!(codec.delta_bytes_written, delta.payload_bytes());
        assert!(codec.delta_pages_total >= codec.delta_pages_written);
        // Delta is cheaper than the full checkpoint the same draw buys,
        // and the child's snapshot is what a full checkpoint takes.
        let (full_snap, full_cost) = full(&engine, &mut rng_full, &child_process);
        assert_eq!(full_snap, snap, "same RNG draw, same snapshot");
        assert!(cost < full_cost);
        // Both arms left the RNGs at the same stream position.
        assert_eq!(rng.next_u64(), rng_full.next_u64());
    }

    #[test]
    fn invalidate_prevents_cross_instance_cache_hits() {
        // One engine checkpointing two process instances in turn: the
        // second checkpoint carries the second instance's state, never a
        // stale payload of the first.
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(23);
        let mut codec = CodecStats::default();
        let first = Counter {
            value: 10,
            history: vec![],
        };
        let second = Counter {
            value: 99,
            history: vec![],
        };
        engine.checkpoint(&mut codec, &mut rng, &first, meta(), None);
        let (snap, _, _) = engine.checkpoint(&mut codec, &mut rng, &second, meta(), None);
        let (restored, _): (Counter, _) = engine.restore(&mut rng, &snap).unwrap();
        assert_eq!(restored.value, 99, "stale cache must not leak");
        assert_eq!(codec.encodes, 2);
    }

    #[test]
    fn versionless_process_never_caches() {
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(24);
        let mut codec = CodecStats::default();
        let process = Counter {
            value: 3,
            history: vec![],
        };
        engine.checkpoint(&mut codec, &mut rng, &process, meta(), None);
        engine.checkpoint(&mut codec, &mut rng, &process, meta(), None);
        assert_eq!(codec.encodes, 2);
        assert_eq!(codec.encode_skips, 0);
    }

    #[test]
    fn restore_from_shared_is_zero_copy() {
        // A download parsed from its frame chunks restores without copying
        // the payload out of the shared transport buffer.
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(25);
        let process = Counter {
            value: 7,
            history: vec![4.0],
        };
        let (snap, _) = full(&engine, &mut rng, &process);
        let frame = snap.to_frame_with(&mut Encoder::new());
        let Ok(Stored::Full(snap2)) = frame.parse() else {
            panic!("a full frame parses as a full snapshot");
        };
        assert_eq!(snap2, snap);
        assert_eq!(snap2.payload().as_ptr(), frame.payload.as_ptr());
        let (restored, _): (Counter, _) = engine.restore(&mut rng, &snap2).unwrap();
        assert_eq!(restored, process);
    }

    #[test]
    fn corrupt_payload_is_a_state_error() {
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let process = Counter {
            value: 7,
            history: vec![1.0],
        };
        let (snap, _) = full(&engine, &mut rng, &process);
        // Truncate the payload: framing is fine, state is not.
        let truncated = snap.payload().slice(..snap.payload().len() - 1);
        let snap = Snapshot::new(snap.meta, truncated, snap.nominal_size);
        assert!(engine.restore::<Counter, _>(&mut rng, &snap).is_err());
    }

    #[test]
    fn trailing_state_bytes_are_rejected() {
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let process = Counter {
            value: 7,
            history: vec![],
        };
        let (snap, _) = full(&engine, &mut rng, &process);
        let mut extended = snap.payload().to_vec();
        extended.push(0);
        let snap = Snapshot::new(snap.meta, Bytes::from(extended), snap.nominal_size);
        let err = engine.restore::<Counter, _>(&mut rng, &snap).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn corrupt_transport_is_a_format_error() {
        // Damaged transport bytes fail frame validation, so they never
        // reach the engine's state decoder.
        let engine = SimCriuEngine::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let junk = Frame {
            header: Bytes::from_static(b"junk"),
            payload: Bytes::new(),
            trailer: Bytes::new(),
        };
        assert!(junk.parse().is_err());
        let process = Counter {
            value: 7,
            history: vec![1.0],
        };
        let (snap, _) = full(&engine, &mut rng, &process);
        let mut frame = snap.to_frame_with(&mut Encoder::new());
        let mut payload = frame.payload.to_vec();
        payload[0] ^= 0xff;
        frame.payload = Bytes::from(payload);
        assert!(matches!(
            frame.parse(),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn costs_scale_with_image_size() {
        #[derive(Debug)]
        struct Big;
        impl Checkpointable for Big {
            fn encode_state(&self, enc: &mut Encoder) {
                enc.put_u8(0);
            }
            fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.take_u8()?;
                Ok(Big)
            }
            fn image_size_bytes(&self) -> u64 {
                64 * 1024 * 1024
            }
        }
        let engine = SimCriuEngine::new();
        // Compare means across many samples to dodge jitter.
        let avg = |image: bool| -> f64 {
            let mut rng = SmallRng::seed_from_u64(8);
            let mut total = 0.0;
            for _ in 0..200 {
                let (_, cost) = if image {
                    full(&engine, &mut rng, &Big)
                } else {
                    let counter = Counter {
                        value: 0,
                        history: vec![],
                    };
                    full(&engine, &mut rng, &counter)
                };
                total += cost.as_micros() as f64;
            }
            total / 200.0
        };
        assert!(avg(true) > avg(false));
    }
}
