//! Snapshot codec throughput: the zero-copy fast path against the
//! pre-fast-path baseline, at checkpoint-sized payloads (10–64 MiB).
//!
//! `encode_legacy` replays what the codec did before scratch reuse and
//! zero-copy framing landed: a fresh allocation per encode, the payload
//! copied into it, and a byte-at-a-time FNV over the whole frame.
//! `encode_full` is what a brand-new snapshot pays now: one word-folded
//! hash of the payload, then `Snapshot::to_frame_with` on a reused
//! `Encoder`. `decode` parses the stored chunks (`Frame::parse`: header,
//! trailer and the payload hash). These charge the payload's bytes.
//!
//! `encode_fast` re-frames a snapshot whose payload hash is cached, which
//! writes only the ~100-byte header and shares the payload chunk: its
//! cost does not grow with the payload, so the `codec_frame` group times
//! it per frame, without a byte throughput. Run `scripts/bench_codec.sh`
//! to collect the numbers as JSON.

#![forbid(unsafe_code)]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pronghorn_checkpoint::{Encoder, Snapshot, SnapshotMeta};
use pronghorn_sim::hash::{fnv1a, fnv1a_wide};

/// A deterministic incompressible-ish payload of `len` bytes.
fn pattern_payload(len: usize) -> Bytes {
    let mut buf = vec![0u8; len];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for chunk in buf.chunks_exact_mut(8) {
        x = x.wrapping_mul(0xd129_0d3b_3f82_ab1d).wrapping_add(1);
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    Bytes::from(buf)
}

/// The codec's pre-fast-path encode: a fresh buffer every call, the
/// payload copied into it, and a byte-at-a-time FNV over the whole frame.
fn legacy_encode(snapshot: &Snapshot, payload: &Bytes) -> Bytes {
    let mut buf = Vec::with_capacity(payload.len() + 128);
    buf.extend_from_slice(b"PRONGSNAP");
    buf.extend_from_slice(&snapshot.id.0.to_le_bytes());
    buf.extend_from_slice(&(snapshot.meta.request_number).to_le_bytes());
    buf.extend_from_slice(&snapshot.nominal_size.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    Bytes::from(buf)
}

fn meta() -> SnapshotMeta {
    SnapshotMeta {
        function: "bench".to_string(),
        request_number: 7,
        runtime: "JVM".to_string(),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_throughput");
    for &mb in &[10usize, 32, 64] {
        let len = mb << 20;
        let payload = pattern_payload(len);
        let snapshot = Snapshot::with_nonce(meta(), payload.clone(), len as u64, 1);
        let mut enc = Encoder::new();
        let frame = snapshot.to_frame_with(&mut enc);
        group.throughput(Throughput::Bytes(len as u64));

        group.bench_function(format!("encode_legacy/{mb}MB"), |b| {
            b.iter(|| legacy_encode(&snapshot, &payload))
        });
        group.bench_function(format!("encode_full/{mb}MB"), |b| {
            b.iter(|| {
                Snapshot::with_nonce(meta(), payload.clone(), len as u64, 1).to_frame_with(&mut enc)
            })
        });
        group.bench_function(format!("decode/{mb}MB"), |b| {
            b.iter(|| frame.parse().expect("round trip"))
        });
        group.bench_function(format!("checksum_wide/{mb}MB"), |b| {
            b.iter(|| fnv1a_wide(&payload))
        });
        group.bench_function(format!("checksum_byte/{mb}MB"), |b| {
            b.iter(|| fnv1a(&payload))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("codec_frame");
    for &mb in &[10usize, 32, 64] {
        let len = mb << 20;
        let snapshot = Snapshot::with_nonce(meta(), pattern_payload(len), len as u64, 1);
        let mut enc = Encoder::new();
        group.bench_function(format!("encode_fast/{mb}MB"), |b| {
            b.iter(|| snapshot.to_frame_with(&mut enc))
        });
    }
    group.finish();
}

criterion_group!(codec_throughput, bench_codec);
criterion_main!(codec_throughput);
