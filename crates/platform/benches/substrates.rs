//! Micro-benchmarks of every substrate: the checkpoint engine and codec,
//! the object store, the JIT runtime's request execution,
//! the work-unit forms of the workload kernels, each benchmark's
//! `generate`, and the generator's `discard` jump against stepping.

#![forbid(unsafe_code)]

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pronghorn_checkpoint::{
    CheckpointScratch, Checkpointable, Encoder, SimCriuEngine, SnapshotMeta,
};
use pronghorn_jit::Runtime;
use pronghorn_store::ObjectStore;
use pronghorn_workloads::benches::python;
use pronghorn_workloads::kernels::{compress, graph, json};
use pronghorn_workloads::{by_name, evaluation_benchmarks, InputVariance, Workload};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

fn warm_runtime() -> Runtime {
    let workload = by_name("BFS").expect("bundled");
    let mut rng = SmallRng::seed_from_u64(1);
    let (mut rt, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut rng,
    );
    let mut exec = SmallRng::seed_from_u64(2);
    for i in 0..200u64 {
        let mut input = SmallRng::seed_from_u64(i);
        let request = workload.generate(&mut input, InputVariance::none());
        rt.execute(&request, &mut exec);
    }
    rt
}

fn bench_checkpoint_engine(c: &mut Criterion) {
    let engine = SimCriuEngine::new();
    let runtime = warm_runtime();
    let meta = || SnapshotMeta {
        function: "bfs".into(),
        request_number: 200,
        runtime: "pypy".into(),
    };
    let mut scratch = CheckpointScratch::new();
    let mut group = c.benchmark_group("checkpoint_engine");
    group.bench_function("checkpoint_runtime", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| engine.checkpoint(&mut scratch, &mut rng, &runtime, meta(), None))
    });
    let mut rng = SmallRng::seed_from_u64(4);
    let (snapshot, _, _) = engine.checkpoint(&mut scratch, &mut rng, &runtime, meta(), None);
    group.bench_function("restore_runtime", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| engine.restore::<Runtime, _>(&mut rng, &snapshot).unwrap())
    });
    let frame = snapshot.to_frame_with(&mut Encoder::new());
    group.throughput(Throughput::Bytes(
        (frame.header.len() + frame.payload.len() + frame.trailer.len()) as u64,
    ));
    group.bench_function("frame_parse", |b| b.iter(|| frame.parse().unwrap()));
    group.finish();
}

fn bench_jit_execution(c: &mut Criterion) {
    let workload = by_name("BFS").expect("bundled");
    let mut runtime = warm_runtime();
    let mut input = SmallRng::seed_from_u64(6);
    let request = workload.generate(&mut input, InputVariance::none());
    let mut group = c.benchmark_group("jit_runtime");
    group.bench_function("execute_request_warm", |b| {
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| runtime.execute(&request, &mut rng))
    });
    group.bench_function("image_size_model", |b| {
        b.iter(|| runtime.image_size_bytes())
    });
    group.finish();
}

fn bench_stores(c: &mut Criterion) {
    let mut group = c.benchmark_group("stores");
    let mut store = ObjectStore::new();
    let (head, tail) = (Bytes::from(vec![1u8; 64]), Bytes::from(vec![2u8; 32]));
    let blob = Bytes::from(vec![0xabu8; 64 * 1024]);
    group.throughput(Throughput::Bytes(blob.len() as u64));
    // A snapshot-shaped object replaced under one key and read back: the
    // put hashes the payload, the get re-hashes it.
    group.bench_function("object_store_put_get_64k", |b| {
        b.iter(|| {
            store.put_chunked(
                "snapshots",
                "bench",
                head.clone(),
                blob.clone(),
                tail.clone(),
            );
            store.get_chunks("snapshots", "bench").unwrap()
        })
    });
    group.finish();
}

/// The work-unit forms requests run, at each benchmark's base size: BFS's
/// edge count, MST's and PageRank's edge lists, and the JSON benchmark's
/// parse. PageRank (again) and Compression, the costliest `generate`s, are
/// timed at the mean size of the paper's input variance (factor ≈ 1.6: 404
/// nodes, 13,242 bytes), Compression on its own mix of phrase and random
/// chunks.
fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_kernels");
    let mut rng = SmallRng::seed_from_u64(8);
    let mst = graph::EdgeList::random(&mut rng, 400, 800);
    let pagerank = graph::EdgeList::random(&mut rng, 250, 750);
    let pagerank_mean = graph::EdgeList::random(&mut rng, 404, 3 * 404);
    group.bench_function("random_edge_count_600", |b| {
        b.iter(|| graph::random_edge_count(&mut rng, 600, 600))
    });
    group.bench_function("edge_list_mst_kruskal_400", |b| {
        b.iter(|| mst.mst_kruskal())
    });
    group.bench_function("edge_list_pagerank_250", |b| {
        b.iter(|| pagerank.pagerank(25, 1e-7))
    });
    group.bench_function("edge_list_pagerank_404", |b| {
        b.iter(|| pagerank_mean.pagerank(25, 1e-7))
    });

    let files = python::compression_files(&mut rng, 13_242);
    group.throughput(Throughput::Bytes(files.len() as u64));
    group.bench_function("lz77_compress_stats_mix_13242", |b| {
        b.iter(|| compress::compress_stats(&files))
    });

    let mut rng = SmallRng::seed_from_u64(9);
    let doc = json::random_document(&mut rng, 300);
    let (serialized, _) = json::serialize(&doc);
    group.throughput(Throughput::Bytes(serialized.len() as u64));
    group.bench_function("json_parse_300_nodes", |b| {
        b.iter(|| json::parse(&serialized).unwrap())
    });
    group.finish();
}

/// One request draw per iteration at the paper's input variance, for each
/// of the 13 evaluation benchmarks: the per-benchmark split of the
/// workload layer's host time.
fn bench_workload_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generate");
    for workload in evaluation_benchmarks() {
        let mut rng = SmallRng::seed_from_u64(10);
        group.bench_function(workload.name(), |b| {
            b.iter(|| workload.generate(&mut rng, InputVariance::paper()))
        });
    }
    group.finish();
}

/// Skipping Thumbnailer's `3·96·72` pixel draws at the base size: one
/// `next_u64` per draw against `SmallRng`'s polynomial jump.
fn bench_rng_discard(c: &mut Criterion) {
    const DRAWS: u64 = 3 * 96 * 72;
    let mut group = c.benchmark_group("rng_discard");
    let mut rng = SmallRng::seed_from_u64(11);
    group.bench_function("step_20736", |b| {
        b.iter(|| {
            for _ in 0..DRAWS {
                black_box(rng.next_u64());
            }
        })
    });
    group.bench_function("jump_20736", |b| b.iter(|| rng.discard(black_box(DRAWS))));
    group.finish();
}

criterion_group!(
    substrates,
    bench_checkpoint_engine,
    bench_jit_execution,
    bench_stores,
    bench_kernels,
    bench_workload_generate,
    bench_rng_discard,
);
criterion_main!(substrates);
