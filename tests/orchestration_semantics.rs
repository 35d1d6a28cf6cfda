//! Integration tests pinning the orchestration semantics the paper
//! describes, across crate boundaries.

#![forbid(unsafe_code)]

use pronghorn::checkpoint::{Checkpointable, CodecStats, SimCriuEngine, SnapshotMeta};
use pronghorn::jit::{MethodWork, RequestWork, Runtime};
use pronghorn::prelude::*;

fn simple_request() -> RequestWork {
    RequestWork::new(vec![
        MethodWork {
            method: 0,
            units: 500.0,
            calls: 1.0,
        },
        MethodWork {
            method: 1,
            units: 500.0,
            calls: 100.0,
        },
        MethodWork {
            method: 2,
            units: 500.0,
            calls: 200.0,
        },
        MethodWork {
            method: 3,
            units: 500.0,
            calls: 400.0,
        },
    ])
}

/// A restored runtime must behave as if it had never been evicted: the
/// "requests to convergence" counted across snapshot generations equals a
/// single long-lived worker's.
#[test]
fn snapshot_chains_preserve_warmup_progress() {
    let workload = by_name("BFS").expect("bundled benchmark");
    let engine = SimCriuEngine::new();
    let mut codec = CodecStats::default();
    let factory = RngFactory::new(21);
    let mut rng = factory.stream("chain");

    // Continuous worker: 120 requests straight.
    let (mut continuous, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut rng,
    );
    let mut rng_a = factory.stream("exec");
    for _ in 0..120 {
        continuous.execute(&simple_request(), &mut rng_a);
    }

    // Chained worker: checkpoint/restore every 10 requests.
    let (mut chained, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut rng,
    );
    let mut rng_b = factory.stream("exec"); // same stream seed as rng_a
    for generation in 0..12 {
        for _ in 0..10 {
            chained.execute(&simple_request(), &mut rng_b);
        }
        let meta = SnapshotMeta {
            function: "chain".into(),
            request_number: (generation + 1) * 10,
            runtime: "pypy".into(),
        };
        let (snapshot, _, _) = engine.checkpoint(&mut codec, &mut rng, &chained, meta, None);
        let (restored, _): (Runtime, _) = engine.restore(&mut rng, &snapshot).unwrap();
        chained = restored;
    }

    assert_eq!(continuous.requests_executed(), chained.requests_executed());
    // Same tiers reached (checkpointing is transparent to JIT progress).
    let tiers = |r: &Runtime| -> Vec<_> { r.method_states().iter().map(|m| m.tier).collect() };
    assert_eq!(tiers(&continuous), tiers(&chained));
}

/// Checkpoint request numbers never exceed `W` ("Largest request number
/// at which checkpointing is permitted", Table 2), and the provider's
/// §5.3 cost bound — stop checkpointing after `W + 100` invocations —
/// caps the checkpoint count without hurting the latency benefit.
#[test]
fn checkpointing_is_bounded_by_w_and_the_provider_stop() {
    let workload = by_name("DFS").expect("bundled benchmark");

    // Faithful evaluation setup: checkpointing continues (one per
    // lifetime at eviction rate 1) but only inside [0, W].
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 77).with_invocations(500);
    let unbounded = run_closed_loop(&workload, &cfg);
    assert!(
        unbounded.snapshot_requests.iter().all(|&r| r <= 100),
        "snapshot beyond W taken"
    );

    // Provider stop at W + 100 = 200 invocations.
    let stopped_cfg = cfg.with_checkpoint_stop(200);
    let stopped = run_closed_loop(&workload, &stopped_cfg);
    assert!(
        stopped.checkpoint_ms.len() <= 201,
        "{} checkpoints despite the stop",
        stopped.checkpoint_ms.len()
    );
    assert!(stopped.checkpoint_ms.len() < unbounded.checkpoint_ms.len());
    // The latency benefit survives: medians within 15% of each other.
    let ratio = stopped.median_us() / unbounded.median_us();
    assert!((0.85..=1.15).contains(&ratio), "stop cost ratio {ratio}");
}

/// The image a checkpoint produces must grow as the runtime optimizes
/// (more machine code in the image) — Table 4's size gradient.
#[test]
fn snapshot_size_grows_with_optimization_state() {
    let workload = by_name("Hash").expect("bundled benchmark");
    let factory = RngFactory::new(8);
    let mut rng = factory.stream("x");
    let (mut runtime, _) = Runtime::cold_start(
        workload.runtime_profile(),
        workload.method_profiles(),
        &mut rng,
    );
    let cold_size = runtime.image_size_bytes();
    let mut exec = factory.stream("exec");
    for i in 0..3_000u64 {
        let mut input = factory.stream_indexed("input", i);
        let request = workload.generate(&mut input, InputVariance::none());
        runtime.execute(&request, &mut exec);
    }
    let warm_size = runtime.image_size_bytes();
    assert!(
        warm_size > cold_size,
        "warm image {warm_size} <= cold image {cold_size}"
    );
}

/// Baselines restore from exactly one snapshot forever; the request-centric
/// policy restores from a spread of request numbers (its pool).
#[test]
fn policies_differ_in_restore_diversity() {
    use pronghorn::platform::ProvisionKind;
    let workload = by_name("MST").expect("bundled benchmark");
    let distinct_resumes = |policy: PolicyKind| -> usize {
        let cfg = RunConfig::paper(policy, 1, 13).with_invocations(300);
        let result = run_closed_loop(&workload, &cfg);
        let mut resumes: Vec<u32> = result
            .provisions
            .iter()
            .filter_map(|p| match p {
                ProvisionKind::Restored(r) => Some(*r),
                ProvisionKind::Cold => None,
            })
            .collect();
        resumes.sort_unstable();
        resumes.dedup();
        resumes.len()
    };
    assert_eq!(distinct_resumes(PolicyKind::AfterFirst), 1);
    assert!(distinct_resumes(PolicyKind::RequestCentric) > 20);
}

/// A custom Checkpointable type works with the engine — the "agnostic to
/// the underlying checkpoint engine and runtime" claim, inverted: the
/// engine is agnostic to the process.
#[test]
fn engine_is_process_agnostic() {
    use pronghorn::checkpoint::codec::{CodecError, Decoder, Encoder};

    #[derive(Debug, PartialEq)]
    struct KvProcess {
        entries: Vec<(String, u64)>,
    }

    impl Checkpointable for KvProcess {
        fn encode_state(&self, enc: &mut Encoder) {
            enc.put_seq(&self.entries, |e, (k, v)| {
                e.put_str(k);
                e.put_u64(*v);
            });
        }
        fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
            Ok(KvProcess {
                entries: dec.take_seq(16, |d| {
                    let k = d.take_str()?.to_string();
                    let v = d.take_u64()?;
                    Ok((k, v))
                })?,
            })
        }
        fn image_size_bytes(&self) -> u64 {
            1024 * 1024
        }
    }

    let engine = SimCriuEngine::new();
    let mut rng = RngFactory::new(3).stream("engine");
    let process = KvProcess {
        entries: vec![("a".into(), 1), ("b".into(), 2)],
    };
    let meta = SnapshotMeta {
        function: "kv".into(),
        request_number: 0,
        runtime: "custom".into(),
    };
    let (snapshot, _, _) =
        engine.checkpoint(&mut CodecStats::default(), &mut rng, &process, meta, None);
    let (restored, _): (KvProcess, _) = engine.restore(&mut rng, &snapshot).unwrap();
    assert_eq!(restored, process);
}

/// A 1-node cluster is the single-node runner: same client latencies, same
/// provision sequence, same restore telemetry, and no remote traffic —
/// the gateway is a no-op when there is nowhere else to route.
#[test]
fn one_node_cluster_is_the_closed_loop_runner() {
    let workload = by_name("Uploader").expect("bundled benchmark");
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 4, 99).with_invocations(200);
    let single = run_closed_loop(&workload, &cfg);
    let cluster = run_cluster(&workload, &cfg.with_cluster(ClusterSpec::single_node()));

    assert_eq!(single.latencies_us, cluster.result.latencies_us);
    assert_eq!(single.provisions, cluster.result.provisions);
    assert_eq!(single.restore_infos, cluster.result.restore_infos);
    assert_eq!(cluster.locality.remote_misses, 0);
    assert_eq!(cluster.locality.remote_bytes, 0);
    assert_eq!(cluster.spillovers(), 0);
}

/// The gateway only spills a request off its ring owner when the owner is
/// saturated: at the paper's 60 s request gap every worker slot is free by
/// the next arrival, so load-aware routing degenerates to pure hashing;
/// only a gap far below the service time produces spillover.
#[test]
fn spillover_requires_owner_saturation() {
    let workload = by_name("Hash").expect("bundled benchmark");
    let spec = ClusterSpec::new(4)
        .with_capacity(1)
        .with_routing(RoutingPolicy::LoadAware);
    let cfg = RunConfig::paper(PolicyKind::RequestCentric, 1, 42)
        .with_invocations(150)
        .with_cluster(spec);

    // Paper gap: 60 s between arrivals, no saturation, no spillover.
    let relaxed = run_cluster(&workload, &cfg);
    assert_eq!(relaxed.spillovers(), 0);
    assert_eq!(relaxed.locality.remote_misses, 0);

    // Contended gap: the owner's one slot is still busy when the next
    // request lands, so the gateway walks the ring.
    let mut contended_cfg = cfg;
    contended_cfg.request_gap = SimDuration::from_millis(1);
    let contended = run_cluster(&workload, &contended_cfg);
    assert!(contended.spillovers() > 0);
}

/// Cross-node transfer bytes surface in `RestoreInfo::bytes_transferred`
/// exactly when a restore misses node-local residency: total restore
/// traffic decomposes into the nominal download plus the remote bytes.
#[test]
fn remote_restore_penalty_is_accounted_only_on_locality_misses() {
    let workload = by_name("MatrixMult").expect("bundled benchmark");
    let base = RunConfig::paper(PolicyKind::RequestCentric, 1, 7).with_invocations(150);

    // Single node: every restore is node-local; restore traffic is the
    // nominal snapshot downloads alone.
    let local = run_cluster(&workload, &base.with_cluster(ClusterSpec::single_node()));
    assert_eq!(
        local.result.restore_bytes(),
        local.result.overheads.nominal_bytes_downloaded
    );
    assert_eq!(local.locality.remote_bytes, 0);

    // Contended 4-node load-aware cluster: spilled restores fetch the
    // snapshot from its checkpointing node and the surcharge lands in
    // `bytes_transferred`.
    let mut cfg = base.with_cluster(
        ClusterSpec::new(4)
            .with_capacity(1)
            .with_routing(RoutingPolicy::LoadAware),
    );
    cfg.request_gap = SimDuration::from_millis(1);
    let remote = run_cluster(&workload, &cfg);
    assert!(remote.locality.remote_misses > 0);
    assert!(remote.locality.remote_bytes > 0);
    assert_eq!(
        remote.result.restore_bytes(),
        remote.result.overheads.nominal_bytes_downloaded + remote.locality.remote_bytes
    );
}
