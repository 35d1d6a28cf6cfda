//! Property-based tests for the codec and the stored forms: snapshot and
//! delta frames, and working-set manifests.

#![forbid(unsafe_code)]

use bytes::Bytes;
use pronghorn_checkpoint::codec::{Decoder, Encoder};
use pronghorn_checkpoint::delta::{apply, diff_payload};
use pronghorn_checkpoint::frame::{
    put_envelope, DELTA_MAGIC, DELTA_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use pronghorn_checkpoint::{Frame, Snapshot, SnapshotDelta, SnapshotId, SnapshotMeta, Stored};
use pronghorn_restore::{WorkingSetManifest, MANIFEST_MAGIC, MANIFEST_VERSION};
use pronghorn_sim::hash::fnv1a_wide;
use proptest::prelude::*;

/// One primitive value the codec can carry.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    Bytes(Vec<u8>),
    F64Vec(Vec<f64>),
    OptU32(Option<u32>),
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u8>().prop_map(Field::U8),
        any::<u16>().prop_map(Field::U16),
        any::<u32>().prop_map(Field::U32),
        any::<u64>().prop_map(Field::U64),
        any::<f64>().prop_map(Field::F64),
        any::<bool>().prop_map(Field::Bool),
        ".{0,64}".prop_map(Field::Str),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(Field::Bytes),
        prop::collection::vec(any::<f64>(), 0..32).prop_map(Field::F64Vec),
        prop::option::of(any::<u32>()).prop_map(Field::OptU32),
    ]
}

fn encode_fields(fields: &[Field]) -> Vec<u8> {
    let mut enc = Encoder::new();
    for f in fields {
        match f {
            Field::U8(v) => enc.put_u8(*v),
            Field::U16(v) => enc.put_u16(*v),
            Field::U32(v) => enc.put_u32(*v),
            Field::U64(v) => enc.put_u64(*v),
            Field::F64(v) => enc.put_f64(*v),
            Field::Bool(v) => enc.put_bool(*v),
            Field::Str(v) => enc.put_str(v),
            Field::Bytes(v) => enc.put_bytes(v),
            Field::F64Vec(v) => enc.put_f64_slice(v),
            Field::OptU32(v) => enc.put_option(v, |e, x| e.put_u32(*x)),
        }
    }
    enc.into_bytes()
}

fn bits_equal(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    /// Arbitrary field sequences decode back exactly, with nothing left.
    #[test]
    fn codec_round_trips_arbitrary_sequences(
        fields in prop::collection::vec(field_strategy(), 0..24)
    ) {
        let bytes = encode_fields(&fields);
        let mut dec = Decoder::new(&bytes);
        for f in &fields {
            match f {
                Field::U8(v) => prop_assert_eq!(dec.take_u8().unwrap(), *v),
                Field::U16(v) => prop_assert_eq!(dec.take_u16().unwrap(), *v),
                Field::U32(v) => prop_assert_eq!(dec.take_u32().unwrap(), *v),
                Field::U64(v) => prop_assert_eq!(dec.take_u64().unwrap(), *v),
                Field::F64(v) => prop_assert!(bits_equal(dec.take_f64().unwrap(), *v)),
                Field::Bool(v) => prop_assert_eq!(dec.take_bool().unwrap(), *v),
                Field::Str(v) => prop_assert_eq!(dec.take_str().unwrap(), v.as_str()),
                Field::Bytes(v) => prop_assert_eq!(dec.take_bytes().unwrap(), v.as_slice()),
                Field::F64Vec(v) => {
                    let out = dec.take_f64_vec().unwrap();
                    prop_assert_eq!(out.len(), v.len());
                    for (a, b) in out.iter().zip(v) {
                        prop_assert!(bits_equal(*a, *b));
                    }
                }
                Field::OptU32(v) => {
                    prop_assert_eq!(dec.take_option(|d| d.take_u32()).unwrap(), *v)
                }
            }
        }
        prop_assert!(dec.finish().is_ok());
    }

    /// The decoder never panics on arbitrary garbage.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut dec = Decoder::new(&bytes);
        // Exercise every accessor; errors are fine, panics are not.
        let _ = dec.take_u8();
        let _ = dec.take_u16();
        let _ = dec.take_u64();
        let _ = dec.take_bytes();
        let _ = dec.take_str();
        let _ = dec.take_f64_vec();
        let _ = dec.take_option(|d| d.take_u32());
    }
}

proptest! {
    // Each case costs microseconds; single-byte flips need many cases to
    // reach every field.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Snapshots round-trip their framing exactly.
    #[test]
    fn snapshot_framing_round_trips(
        function in "[a-zA-Z0-9_-]{1,32}",
        request_number in any::<u32>(),
        runtime in "[a-z]{1,8}",
        payload in prop::collection::vec(any::<u8>(), 0..512),
        nominal in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let snap = Snapshot::with_nonce(
            SnapshotMeta { function, request_number, runtime },
            Bytes::from(payload),
            nominal,
            nonce,
        );
        let frame = snap.to_frame_with(&mut Encoder::new());
        prop_assert_eq!(frame.parse(), Ok(Stored::Full(snap)));
    }

    /// Any single-byte corruption of any chunk of a snapshot frame is
    /// detected.
    #[test]
    fn snapshot_corruption_is_detected(
        payload in prop::collection::vec(any::<u8>(), 1..128),
        chunk in 0usize..3,
        flip_pos_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let snap = Snapshot::new(meta(3), Bytes::from(payload), 1 << 20);
        let frame = flip(&snap.to_frame_with(&mut Encoder::new()), chunk, flip_pos_frac, flip_mask);
        // Either a checksum or the structure catches it; silently
        // returning a *different* snapshot would be a bug.
        match frame.parse() {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(parsed, Stored::Full(snap)),
        }
    }

    /// Any single-byte corruption of any chunk of a delta frame is
    /// detected by the time the delta composes: the header by its
    /// trailer, the changed pages by the composed payload's hash.
    #[test]
    fn delta_corruption_is_detected(
        parent in prop::collection::vec(any::<u8>(), 1..2048),
        m in mutation_strategy(),
        chunk in 0usize..3,
        flip_pos_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let parent = Snapshot::new(meta(3), Bytes::from(parent), 1 << 20);
        let child = Snapshot::new(meta(4), Bytes::from(mutate(parent.payload(), &m)), 1 << 20);
        let delta = delta_of(&parent, &child, 64);
        let frame = flip(&delta.to_frame_with(&child, &mut Encoder::new()), chunk, flip_pos_frac, flip_mask);
        match frame.parse() {
            Err(_) => {}
            Ok(Stored::Delta(parsed)) => match parsed.compose(&parent) {
                Err(_) => {}
                Ok(composed) => prop_assert_eq!(composed, child),
            },
            Ok(full) => prop_assert!(false, "a delta frame parsed as {:?}", full),
        }
    }

    /// A manifest carries no checksum of its own (the store checksums
    /// every object it holds, and a manifest's bytes are part of the
    /// stored format), so a flipped byte may still decode. What the
    /// decoder guarantees is that it accepts only the bytes its own
    /// encoding writes: a flip in the envelope is rejected, and anything
    /// accepted re-encodes to exactly the flipped bytes — never a
    /// silently normalized (re-sorted, truncated) manifest.
    #[test]
    fn manifest_corruption_is_detected(
        pages in prop::collection::vec(0u32..100_000, 0..32),
        id in any::<u64>(),
        flip_pos_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let mut manifest = WorkingSetManifest::new("Thumbnailer", id, 256 * 1024);
        manifest.record_all(&pages);
        let mut bytes = manifest.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * flip_pos_frac) as usize;
        bytes[pos] ^= flip_mask;
        match WorkingSetManifest::from_bytes(&bytes) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert!(pos >= ENVELOPE_LEN, "envelope byte {} accepted", pos);
                prop_assert_eq!(decoded.to_bytes(), bytes);
            }
        }
    }

    /// Arbitrary chunks never panic the frame parser, the delta
    /// composer or the manifest decoder — also when the header opens
    /// with a valid envelope and carries a valid trailer, so parsing
    /// reaches the hostile length prefixes and page tables behind it.
    #[test]
    fn garbage_chunks_never_panic(
        kind in 0usize..4,
        body in prop::collection::vec(any::<u8>(), 0..256),
        payload in prop::collection::vec(any::<u8>(), 0..256),
        parent in prop::collection::vec(any::<u8>(), 0..256),
        sealed in any::<bool>(),
    ) {
        let mut enc = Encoder::new();
        match kind {
            0 => put_envelope(&mut enc, SNAPSHOT_MAGIC, SNAPSHOT_VERSION),
            1 => put_envelope(&mut enc, DELTA_MAGIC, DELTA_VERSION),
            2 => put_envelope(&mut enc, MANIFEST_MAGIC, MANIFEST_VERSION),
            _ => {}
        }
        let mut header = enc.into_bytes();
        header.extend_from_slice(&body);
        let _ = WorkingSetManifest::from_bytes(&header);
        let trailer = if sealed {
            fnv1a_wide(&header).to_le_bytes().to_vec()
        } else {
            payload.iter().rev().take(8).copied().collect()
        };
        let frame = Frame {
            header: Bytes::from(header),
            payload: Bytes::from(payload),
            trailer: Bytes::from(trailer),
        };
        if let Ok(Stored::Delta(d)) = frame.parse() {
            let _ = apply(&parent, &d.delta);
            let _ = d.compose(&Snapshot::new(meta(0), Bytes::from(parent), 1 << 20));
        }
    }
}

/// Length of the envelope: the magic's length prefix, the magic, the
/// version.
const ENVELOPE_LEN: usize = 8 + 8 + 2;

fn meta(request_number: u32) -> SnapshotMeta {
    SnapshotMeta {
        function: "f".into(),
        request_number,
        runtime: "jvm".into(),
    }
}

/// `frame` with byte `frac` of chunk `chunk` (header, payload, trailer)
/// xor-ed with `mask`; an empty chunk is left as it is.
fn flip(frame: &Frame, chunk: usize, frac: f64, mask: u8) -> Frame {
    let mut chunks = [
        frame.header.to_vec(),
        frame.payload.to_vec(),
        frame.trailer.to_vec(),
    ];
    let target = &mut chunks[chunk];
    if !target.is_empty() {
        let pos = ((target.len() - 1) as f64 * frac) as usize;
        target[pos] ^= mask;
    }
    let [header, payload, trailer] = chunks.map(Bytes::from);
    Frame {
        header,
        payload,
        trailer,
    }
}

fn delta_of(parent: &Snapshot, child: &Snapshot, page_size: u64) -> SnapshotDelta {
    SnapshotDelta {
        parent: parent.id,
        parent_payload_hash: parent.payload_hash(),
        page_size,
        total_len: child.payload().len() as u64,
        pages: diff_payload(parent.payload(), child.payload(), page_size),
        dirty_nominal_bytes: 1 << 18,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The stored bytes of one full frame, one delta frame and one manifest,
/// as the format wrote them before the frame codec became one module: a
/// change here moves every store byte count and benchmark digest.
#[test]
fn stored_bytes_match_the_pinned_hex() {
    let meta = |request_number| SnapshotMeta {
        function: "dynamic-html".into(),
        request_number,
        runtime: "pypy".into(),
    };
    let parent_bytes: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let mut child_bytes = parent_bytes.clone();
    child_bytes[100] ^= 0xff;
    child_bytes[2500] ^= 0x0f;
    child_bytes.extend_from_slice(&[0xab; 200]);
    let parent = Snapshot::with_nonce(meta(137), Bytes::from(parent_bytes), 55 << 20, 7);
    let child = Snapshot::with_nonce(meta(138), Bytes::from(child_bytes), 55 << 20, 8);
    let delta = SnapshotDelta {
        dirty_nominal_bytes: 3 << 18,
        ..delta_of(&parent, &child, 1024)
    };
    let mut scratch = Encoder::new();

    let full = parent.to_frame_with(&mut scratch);
    assert_eq!(
        hex(&full.header),
        "08000000000000005052534e4150000102007ecd3c21f73646d20c0000000000000064796e616d69632d\
         68746d6c8900000004000000000000007079707900007003000000000817f0f32edf0e9bb80b000000000000"
    );
    assert_eq!(hex(&full.trailer), "aad525402a07577d");
    assert_eq!(full.payload, *parent.payload());

    let framed = delta.to_frame_with(&child, &mut scratch);
    assert_eq!(
        hex(&framed.header),
        "0800000000000000505244454c5400010100e04b31ff22b707850c0000000000000064796e616d69632d\
         68746d6c8a00000004000000000000007079707900007003000000007bad55fd75e6afe87ecd3c21f73646d2\
         0817f0f32edf0e9b0004000000000000800c00000000000000000c00000000000300000000000000000000000004\
         000002000000000400000300000080000000"
    );
    assert_eq!(hex(&framed.trailer), "a15d3c7b6537b0da");
    let pages: Vec<u8> = delta.pages.iter().flat_map(|(_, b)| b.to_vec()).collect();
    assert_eq!(framed.payload, Bytes::from(pages));
    assert_eq!(framed.payload.len(), 2176);

    let mut manifest = WorkingSetManifest::new("BFS", parent.id.0, 256 * 1024);
    manifest.record_all(&[100_000, 0, 17, 4]);
    assert_eq!(
        hex(&manifest.to_bytes()),
        "08000000000000005052575345540001010003000000000000004246537ecd3c21f73646d20000040000000000\
         0400000000000000000000000400000011000000a0860100"
    );
}

proptest! {
    /// Re-using one scratch `Encoder` across many encodes (clearing
    /// between them) produces bytes identical to a fresh encoder per
    /// encode — the fast path changes allocation behavior only.
    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh_encode(
        sequences in prop::collection::vec(
            prop::collection::vec(field_strategy(), 0..24), 1..8,
        )
    ) {
        let mut scratch = Encoder::new();
        for fields in &sequences {
            scratch.clear();
            for f in fields {
                match f {
                    Field::U8(v) => scratch.put_u8(*v),
                    Field::U16(v) => scratch.put_u16(*v),
                    Field::U32(v) => scratch.put_u32(*v),
                    Field::U64(v) => scratch.put_u64(*v),
                    Field::F64(v) => scratch.put_f64(*v),
                    Field::Bool(v) => scratch.put_bool(*v),
                    Field::Str(v) => scratch.put_str(v),
                    Field::Bytes(v) => scratch.put_bytes(v),
                    Field::F64Vec(v) => scratch.put_f64_slice(v),
                    Field::OptU32(v) => scratch.put_option(v, |e, x| e.put_u32(*x)),
                }
            }
            prop_assert_eq!(scratch.as_bytes(), &encode_fields(fields)[..]);
        }
    }
}

/// One mutation of a process payload between checkpoints.
#[derive(Debug, Clone)]
enum Mutation {
    /// Overwrite a run of bytes somewhere in the payload (offset taken
    /// modulo the payload length at apply time).
    Overwrite(u16, Vec<u8>),
    /// Grow the payload at the end.
    Append(Vec<u8>),
    /// Shrink the payload (length factor taken modulo at apply time,
    /// never to zero).
    Truncate(u16),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u16>(), prop::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(at, data)| Mutation::Overwrite(at, data)),
        prop::collection::vec(any::<u8>(), 1..128).prop_map(Mutation::Append),
        any::<u16>().prop_map(Mutation::Truncate),
    ]
}

fn mutate(current: &[u8], m: &Mutation) -> Vec<u8> {
    let mut next = current.to_vec();
    match m {
        Mutation::Overwrite(at, data) => {
            let start = usize::from(*at) % next.len().max(1);
            for (i, b) in data.iter().enumerate() {
                match next.get_mut(start + i) {
                    Some(slot) => *slot = *b,
                    None => next.push(*b),
                }
            }
        }
        Mutation::Append(data) => next.extend_from_slice(data),
        Mutation::Truncate(at) => {
            let keep = (usize::from(*at) % next.len().max(1)).max(1);
            next.truncate(keep);
        }
    }
    next
}

proptest! {
    /// Delta-chain correctness under arbitrary mutation sequences: for any
    /// consolidation depth K and diff page size, composing the stored
    /// chain — root payload plus each delta in order — reproduces the
    /// byte-exact payload an eager full encode of the final state would
    /// have produced. Consolidation points restart the chain mid-sequence,
    /// so the property also covers post-consolidation lineages.
    #[test]
    fn delta_chains_compose_to_the_eager_encode(
        root in prop::collection::vec(any::<u8>(), 1..4096),
        muts in prop::collection::vec(mutation_strategy(), 1..12),
        page_selector in any::<u8>(),
        k in 1u32..5,
    ) {
        let page_size = [1u64, 7, 64, 1024][usize::from(page_selector) % 4];
        let mut chain_root = Bytes::from(root);
        let mut deltas: Vec<SnapshotDelta> = Vec::new();
        let mut current = chain_root.clone();
        let compose = |root: &Bytes, deltas: &[SnapshotDelta]| -> Bytes {
            let mut acc = root.clone();
            for d in deltas {
                acc = apply(&acc, d).expect("chain delta applies");
            }
            acc
        };
        for (seq, m) in muts.iter().enumerate() {
            let next = Bytes::from(mutate(&current, m));
            if deltas.len() as u32 >= k {
                // Consolidation: the closing chain must compose exactly
                // before the lineage rebases onto a fresh full root.
                prop_assert_eq!(&compose(&chain_root, &deltas)[..], &current[..]);
                chain_root = next.clone();
                deltas.clear();
            } else {
                let pages = diff_payload(&current, &next, page_size);
                deltas.push(SnapshotDelta {
                    parent: SnapshotId(seq as u64),
                    parent_payload_hash: 0,
                    page_size,
                    total_len: next.len() as u64,
                    pages,
                    dirty_nominal_bytes: 0,
                });
            }
            current = next;
        }
        prop_assert_eq!(&compose(&chain_root, &deltas)[..], &current[..]);
    }
}
