//! One repetition: run every cell of a plan through its public runner,
//! check the outputs, fold them into a digest, and compute the metrics.

use crate::plan::{Cell, Plan, Runner, Scenario};
use crate::trace::{Clock, CountingArrivals, SpanAgg, Spans, TimedWorkload};
use pronghorn_checkpoint::CodecStats;
use pronghorn_experiments::grid::{Grid, GridCell};
use pronghorn_experiments::summary::summarize;
use pronghorn_metrics::Quantiles;
use pronghorn_platform::{
    run_closed_loop, run_cluster, run_production, ClusterRunResult, LocalityStats, ProductionStats,
    ProvisionStats, RunResult, StorageStats,
};
use pronghorn_sim::hash::{mix64, Fnv1a};
use pronghorn_sim::{Kernel, RngFactory, SimDuration, SimTime};
use pronghorn_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// The paper's geometric-mean median improvement of request-centric over
/// after-first at eviction rates 1, 4 and 20 (§5.2), percent.
const PAPER_IMPROVEMENT_PCT: [f64; 3] = [37.2, 22.5, 13.5];

/// What one repetition measured.
#[derive(Debug)]
pub struct RepOutput {
    /// Simulated requests the cells were asked to serve.
    pub attempted: u64,
    /// Requests not served, plus every request of a cell that failed a
    /// check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Hash over every simulated output, in cell order; host timers are
    /// excluded, so it repeats exactly for a seed.
    pub digest: u64,
    /// End-to-end metrics the repetition measures itself (the process
    /// adds `setup_s` and `peak_rss_mb`).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Simulated outcomes that are printed but not gated: the latency
    /// median and p99 with their sample count, transfer per request, and
    /// on `paper-grid` the gap to the paper's headline.
    pub outcomes: Vec<(&'static str, f64)>,
    /// Per-layer metrics; empty unless the repetition was traced.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced repetition's spans.
    pub spans: Spans,
}

/// Runs every cell of `plan` once. A traced repetition wraps each
/// benchmark and arrival stream in the span recorders of
/// [`crate::trace`]; an untraced one hands the program the bare objects.
pub fn run_rep(plan: &Plan, traced: bool) -> RepOutput {
    let clock = Clock::new();
    let mut spans = Spans::default();
    let mut totals = Totals::default();
    let mut digest = Digest(Fnv1a::new());
    let mut grid = Grid::default();
    let rep_start = clock.now_ns();
    let root = spans.push("rep", None, rep_start, rep_start);
    for cell in &plan.cells {
        let bare: &dyn Workload = &plan.workloads[cell.bench];
        let timed = TimedWorkload::new(bare, &clock);
        let workload: &dyn Workload = if traced { &timed } else { bare };
        let stream = SpanAgg::new();
        let start = clock.now_ns();
        let outcome = match cell.runner {
            Runner::ClosedLoop => Outcome::Closed(run_closed_loop(workload, &cell.cfg)),
            Runner::Cluster => Outcome::Cluster(run_cluster(workload, &cell.cfg)),
            Runner::Production(spec) => {
                let rng = RngFactory::new(cell.cfg.seed).stream("production");
                let timer = traced.then_some((&clock, &stream));
                let mut arrivals = CountingArrivals::new(spec.stream(rng), timer);
                let stats = run_production(workload, &cell.cfg, &mut arrivals);
                Outcome::Production(stats, arrivals.count)
            }
        };
        let end = clock.now_ns();
        if traced {
            let id = spans.push(outcome.span_name(), Some(root), start, end);
            spans.push_agg("workloads.generate", id, &timed.generate);
            spans.push_agg("workloads.profile", id, &timed.profile);
            spans.push_agg("traces.stream", id, &stream);
        }
        let name = bare.name();
        match outcome {
            Outcome::Closed(mut r) => {
                totals.absorb_run(cell, name, &r, 0, Vec::new());
                digest.run(&mut r);
                if plan.scenario == Scenario::PaperGrid {
                    grid.cells.push(GridCell {
                        workload: name.to_string(),
                        policy: cell.cfg.policy,
                        rate: cell.cfg.eviction_rate,
                        result: r,
                    });
                }
            }
            Outcome::Cluster(mut c) => {
                totals.absorb_cluster(cell, name, &c);
                digest.run(&mut c.result);
                digest.write(&format!("{:?}{:?}", c.nodes, c.locality));
            }
            Outcome::Production(stats, arrivals) => {
                totals.absorb_production(cell, name, &stats, arrivals);
                digest.write(&format!("{stats:?}{arrivals}"));
            }
        }
    }

    let summarize_start = clock.now_ns();
    let rc = Quantiles::new(std::mem::take(&mut totals.rc_latencies_us));
    let (mean_us, p50_us, p99_us, latency_samples) = match (&totals.production, &rc) {
        (Some(p), _) => (
            p.mean_latency_us,
            p.p50_latency_us,
            p.p99_latency_us,
            p.invocations,
        ),
        (None, Some(q)) => (
            q.sorted().iter().sum::<f64>() / q.len() as f64,
            q.median(),
            q.percentile(99.0),
            q.len() as u64,
        ),
        (None, None) => (f64::NAN, f64::NAN, f64::NAN, 0),
    };
    let paper_gap_pp = (plan.scenario == Scenario::PaperGrid).then(|| paper_gap(&grid));
    let summarize_end = clock.now_ns();
    let wall_s = (summarize_end - rep_start) as f64 * 1e-9;

    let mut failures = std::mem::take(&mut totals.failures);
    if !(finite_positive(&[mean_us, p50_us, p99_us]) && p99_us >= p50_us) {
        failures.push(format!(
            "latency summary mean {mean_us} p50 {p50_us} p99 {p99_us} is not a distribution"
        ));
        totals.failed = totals.attempted;
    }
    let end_to_end = vec![
        ("wall_s", wall_s),
        ("sim_req_per_s", totals.served as f64 / wall_s),
        ("sim_mean_ms", mean_us / 1e3),
    ];
    let mut outcomes = vec![
        ("sim_p50_ms", p50_us / 1e3),
        ("sim_p99_ms", p99_us / 1e3),
        ("sim_latency_samples", latency_samples as f64),
        (
            "sim_transfer_mb_per_req",
            totals.rc_transfer_mb / totals.rc_served as f64,
        ),
    ];
    if let Some(gap) = paper_gap_pp {
        outcomes.push(("paper_gap_pp", gap));
    }

    let mut layers = Vec::new();
    if traced {
        spans.close(root, summarize_end);
        spans.push(
            "metrics.summarize",
            Some(root),
            summarize_start,
            summarize_end,
        );
        layers = totals.layers(&spans, wall_s, replay_events_per_s(plan));
    }
    RepOutput {
        attempted: totals.attempted,
        failed: totals.failed,
        failures,
        digest: digest.0.finish(),
        end_to_end,
        outcomes,
        layers,
        spans,
    }
}

/// A runner's result.
enum Outcome {
    Closed(RunResult),
    Cluster(ClusterRunResult),
    /// The stats and the arrivals the benchmark's iterator counted.
    Production(ProductionStats, u64),
}

impl Outcome {
    fn span_name(&self) -> &'static str {
        match self {
            Outcome::Closed(_) => "platform.run_closed_loop",
            Outcome::Cluster(_) => "platform.run_cluster",
            Outcome::Production(..) => "platform.run_production",
        }
    }
}

/// FNV-1a over the `Debug` form of every simulated output: it covers
/// every field, present and future, with exact float digits.
struct Digest(Fnv1a);

impl Digest {
    fn write(&mut self, s: &str) {
        self.0.write(s.as_bytes());
    }

    /// Digests a run result minus the codec's host-clock timers, the only
    /// fields that differ between two runs of one seed.
    fn run(&mut self, r: &mut RunResult) {
        r.codec.encode_ns = 0;
        r.codec.checksum_ns = 0;
        let _ = write!(self, "{r:?}");
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s);
        Ok(())
    }
}

/// Mean over the paper's rates of |simulated − paper| geometric-mean
/// median improvement of request-centric over after-first, in points.
/// A rate where no benchmark improved counts as 0%.
fn paper_gap(grid: &Grid) -> f64 {
    let summary = summarize(&[grid]);
    let gaps: Vec<f64> = summary
        .rates
        .iter()
        .zip(PAPER_IMPROVEMENT_PCT)
        .map(|(rate, paper)| (rate.geo_mean_improvement_pct.unwrap_or(0.0) - paper).abs())
        .collect();
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

/// Arrivals the kernel replay keeps scheduled at once, as
/// `run_production` does, so the replay's memory stays bounded.
const REPLAY_LOOKAHEAD: usize = 1 << 16;

/// Standalone drive of the simulation kernel: replays every cell's own
/// arrival instants through `Kernel::schedule`/`pop` on the cell's
/// kernel, each arrival scheduling a completion (as `kernel-bench`
/// does). Arrival generation is not timed.
fn replay_events_per_s(plan: &Plan) -> f64 {
    let mut events = 0u64;
    let mut busy_s = 0.0;
    for cell in &plan.cells {
        let arrivals: Vec<SimTime> = match cell.runner {
            Runner::Production(spec) => spec
                .stream(RngFactory::new(cell.cfg.seed).stream("production"))
                .collect(),
            _ => (1..=u64::from(cell.cfg.invocations))
                .map(|i| SimTime::ZERO + cell.cfg.request_gap * i)
                .collect(),
        };
        let started = Instant::now();
        let mut kernel: Kernel<u64> = Kernel::new(cell.cfg.kernel);
        let mut pending = arrivals.iter().zip(0u64..);
        const COMPLETION: u64 = 1 << 63;
        loop {
            while kernel.len() < REPLAY_LOOKAHEAD {
                let Some((&at, i)) = pending.next() else {
                    break;
                };
                kernel.schedule(at, i);
            }
            let Some((at, payload)) = kernel.pop() else {
                break;
            };
            events += 1;
            if payload & COMPLETION == 0 {
                let service = SimDuration::from_micros(mix64(payload) % 50_000 + 100);
                kernel.schedule(at + service, payload | COMPLETION);
            }
        }
        busy_s += started.elapsed().as_secs_f64();
    }
    events as f64 / busy_s
}

/// Counters folded over the cells of one repetition.
#[derive(Default)]
struct Totals {
    attempted: u64,
    served: u64,
    failed: u64,
    failures: Vec<String>,
    latency_samples: u64,
    rc_latencies_us: Vec<f64>,
    rc_served: u64,
    rc_transfer_mb: f64,
    /// The production cell's stats (a workload has at most one).
    production: Option<ProductionStats>,
    arrivals: u64,
    cold_starts: u64,
    startups: u64,
    checkpoints: u64,
    checkpoint_ms: f64,
    provision_us: f64,
    peak_pool_bytes: u64,
    codec: CodecStats,
    restores: u64,
    restore_ms: f64,
    restore_total_us: f64,
    faults: u64,
    prefetched: u64,
    restore_bytes: u64,
    puts: u64,
    gets: u64,
    uploaded: u64,
    downloaded: u64,
    deduped: u64,
    peak_stored: u64,
    chain_deltas: u64,
    chain_consolidations: u64,
    composed_restores: u64,
    storage: StorageStats,
    locality: LocalityStats,
    spillovers: u64,
    queue_delay_us: f64,
    cluster_latency_us: f64,
    peak_workers: u32,
    provisioning: ProvisionStats,
    peak_pending: u64,
}

fn finite_positive(latencies: &[f64]) -> bool {
    latencies.iter().all(|l| l.is_finite() && *l > 0.0)
}

fn provision_conserved(p: &ProvisionStats) -> bool {
    p.pre_restores_issued == p.pre_restores_used + p.pre_restores_wasted
}

impl Totals {
    /// Records a cell's request counts and check results.
    fn tally(
        &mut self,
        cell: &Cell,
        name: &str,
        attempted: u64,
        served: u64,
        failed_checks: &[&str],
    ) {
        self.attempted += attempted;
        self.served += served;
        let mut failed = attempted.saturating_sub(served);
        if served != attempted {
            self.failures.push(format!(
                "{name} seed {:#x}: served {served} of {attempted}",
                cell.cfg.seed
            ));
        }
        for check in failed_checks {
            self.failures
                .push(format!("{name} seed {:#x}: {check}", cell.cfg.seed));
            failed = attempted;
        }
        self.failed += failed;
    }

    fn absorb_provisioning(&mut self, p: &ProvisionStats) {
        self.provisioning.pre_restores_issued += p.pre_restores_issued;
        self.provisioning.pre_restores_used += p.pre_restores_used;
        self.provisioning.pre_restores_wasted += p.pre_restores_wasted;
        self.provisioning.keepalive_byte_s += p.keepalive_byte_s;
    }

    /// Folds a closed-loop (or cluster) result; `remote_bytes` is the
    /// cluster's cross-node traffic and `failed` the cluster's own failed
    /// checks.
    fn absorb_run(
        &mut self,
        cell: &Cell,
        name: &str,
        r: &RunResult,
        remote_bytes: u64,
        mut failed: Vec<&'static str>,
    ) {
        let served = r.latencies_us.len() as u64;
        if !finite_positive(&r.latencies_us) {
            failed.push("a latency is not finite and positive");
        }
        if !provision_conserved(&r.provisioning) {
            failed.push("pre-restores issued != used + wasted");
        }
        self.tally(cell, name, u64::from(cell.cfg.invocations), served, &failed);
        self.latency_samples += served;
        if cell.request_centric() {
            self.rc_latencies_us.extend_from_slice(&r.latencies_us);
            self.rc_served += served;
            let bytes = r.overheads.nominal_bytes_uploaded
                + r.overheads.nominal_bytes_downloaded
                + remote_bytes;
            self.rc_transfer_mb += bytes as f64 / 1e6;
        }
        self.cold_starts += r.cold_starts() as u64;
        self.startups += r.provisions.len() as u64;
        self.checkpoints += r.checkpoint_ms.len() as u64;
        self.checkpoint_ms += r.checkpoint_ms.iter().sum::<f64>();
        self.provision_us += r.provision_us;
        self.peak_pool_bytes = self
            .peak_pool_bytes
            .max(r.overheads.peak_pool_nominal_bytes);
        self.codec.merge(&r.codec);
        self.restores += r.restores() as u64;
        self.restore_ms += r.restore_ms.iter().sum::<f64>();
        self.restore_total_us += r
            .restore_infos
            .iter()
            .map(|i| i.total_restore_us())
            .sum::<f64>();
        self.faults += r.total_faults();
        self.prefetched += r.prefetched_pages();
        self.restore_bytes += r.restore_bytes();
        let s = &r.store_stats;
        self.puts += s.puts;
        self.gets += s.gets;
        self.uploaded += s.bytes_uploaded;
        self.downloaded += s.bytes_downloaded;
        self.deduped += s.bytes_deduped;
        self.peak_stored = self.peak_stored.max(s.peak_bytes_stored);
        self.chain_deltas += r.chain.deltas;
        self.chain_consolidations += r.chain.consolidations;
        self.composed_restores += r.chain.composed_restores;
        self.storage.merge(&r.storage);
        self.absorb_provisioning(&r.provisioning);
    }

    fn absorb_cluster(&mut self, cell: &Cell, name: &str, c: &ClusterRunResult) {
        let conserved = c.result.restore_bytes()
            == c.result.overheads.nominal_bytes_downloaded + c.locality.remote_bytes;
        let mut failed = Vec::new();
        if !conserved {
            failed.push("restore bytes != nominal downloaded + remote bytes");
        }
        if c.served() != u64::from(cell.cfg.invocations) {
            failed.push("node breakdowns do not sum to the invocations");
        }
        self.absorb_run(cell, name, &c.result, c.locality.remote_bytes, failed);
        let l = &c.locality;
        self.locality.local_hits += l.local_hits;
        self.locality.remote_misses += l.remote_misses;
        self.locality.remote_bytes += l.remote_bytes;
        self.spillovers += c.spillovers();
        self.queue_delay_us += c.total_queue_delay_us();
        self.cluster_latency_us += c.result.latencies_us.iter().sum::<f64>();
        let peak = c.nodes.iter().map(|n| n.peak_workers).max().unwrap_or(0);
        self.peak_workers = self.peak_workers.max(peak);
    }

    fn absorb_production(&mut self, cell: &Cell, name: &str, p: &ProductionStats, arrivals: u64) {
        let summary = [
            p.mean_latency_us,
            p.p50_latency_us,
            p.p99_latency_us,
            p.max_latency_us,
        ];
        let mut failed = Vec::new();
        if !finite_positive(&summary) {
            failed.push("a latency summary is not finite and positive");
        }
        if !provision_conserved(&p.provisioning) {
            failed.push("pre-restores issued != used + wasted");
        }
        self.tally(cell, name, arrivals, p.invocations, &failed);
        self.arrivals += arrivals;
        self.rc_served += p.invocations;
        // The runner reports checkpointed, not downloaded, bytes.
        self.rc_transfer_mb += p.snapshot_mb_total;
        self.cold_starts += p.cold_starts;
        self.startups += p.cold_starts + p.restores;
        self.checkpoints += p.checkpoints;
        self.checkpoint_ms += p.checkpoint_ms_total;
        self.provision_us += p.provision_us_total;
        self.restores += p.restores;
        self.restore_ms += p.restore_ms_total;
        self.restore_total_us += p.restore_ms_total * 1e3;
        self.faults += p.restore_faults;
        self.storage.merge(&p.storage);
        self.absorb_provisioning(&p.provisioning);
        self.peak_pending = self.peak_pending.max(p.peak_pending_events as u64);
        self.production = Some(p.clone());
    }

    /// The per-layer metrics, in catalog order.
    fn layers(
        &self,
        spans: &Spans,
        wall_s: f64,
        replay_events_per_s: f64,
    ) -> Vec<(&'static str, f64)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let generate_s = spans.busy_s("workloads.generate");
        let profile_s = spans.busy_s("workloads.profile");
        let stream_s = spans.busy_s("traces.stream");
        let run_s = spans.busy_s("platform.run_closed_loop")
            + spans.busy_s("platform.run_cluster")
            + spans.busy_s("platform.run_production");
        let self_s = run_s - generate_s - profile_s - stream_s;
        let codec = &self.codec;
        let cluster = self.cluster_latency_us > 0.0;
        let prov = &self.provisioning;
        let st = &self.storage;
        let mb = |bytes: u64| bytes as f64 / 1e6;
        vec![
            (
                "workloads.generate_calls",
                spans.calls("workloads.generate") as f64,
            ),
            ("workloads.generate_s", generate_s),
            ("workloads.generate_share", ratio(generate_s, wall_s)),
            (
                "workloads.profile_calls",
                spans.calls("workloads.profile") as f64,
            ),
            ("workloads.profile_s", profile_s),
            ("traces.arrivals", self.arrivals as f64),
            ("traces.stream_share", ratio(stream_s, wall_s)),
            ("platform.run_s", run_s),
            ("platform.self_s", self_s),
            (
                "platform.self_ns_per_req",
                ratio(self_s * 1e9, self.served as f64),
            ),
            ("jit.requests_executed", self.served as f64),
            ("jit.cold_boots", self.cold_starts as f64),
            ("core.startups", self.startups as f64),
            ("core.checkpoints", self.checkpoints as f64),
            (
                "core.provision_ms_per_startup",
                ratio(self.provision_us / 1e3, self.startups as f64),
            ),
            ("core.peak_pool_mb", mb(self.peak_pool_bytes)),
            ("checkpoint.encodes", codec.encodes as f64),
            ("checkpoint.encode_skips", codec.encode_skips as f64),
            (
                "checkpoint.skip_ratio",
                ratio(
                    codec.encode_skips as f64,
                    (codec.encodes + codec.encode_skips) as f64,
                ),
            ),
            ("checkpoint.mb_encoded", mb(codec.bytes_encoded)),
            (
                "checkpoint.encode_share",
                ratio(codec.encode_ns as f64 * 1e-9, wall_s),
            ),
            (
                "checkpoint.checksum_share",
                ratio(codec.checksum_ns as f64 * 1e-9, wall_s),
            ),
            ("checkpoint.delta_encodes", codec.delta_encodes as f64),
            (
                "checkpoint.delta_page_ratio",
                ratio(
                    codec.delta_pages_written as f64,
                    codec.delta_pages_total as f64,
                ),
            ),
            (
                "checkpoint.downtime_ms_mean",
                ratio(self.checkpoint_ms, self.checkpoints as f64),
            ),
            ("restore.restores", self.restores as f64),
            (
                "restore.provision_share",
                ratio(self.restore_ms * 1e3, self.provision_us),
            ),
            ("restore.faults", self.faults as f64),
            ("restore.prefetched_pages", self.prefetched as f64),
            (
                "restore.prefetch_ratio",
                ratio(
                    self.prefetched as f64,
                    (self.prefetched + self.faults) as f64,
                ),
            ),
            ("restore.mb", mb(self.restore_bytes)),
            ("store.puts", self.puts as f64),
            ("store.gets", self.gets as f64),
            ("store.mb_uploaded", mb(self.uploaded)),
            ("store.mb_downloaded", mb(self.downloaded)),
            (
                "store.dedup_ratio",
                ratio(self.deduped as f64, (self.uploaded + self.deduped) as f64),
            ),
            ("store.peak_mb", mb(self.peak_stored)),
            ("store.chain_deltas", self.chain_deltas as f64),
            (
                "store.chain_consolidations",
                self.chain_consolidations as f64,
            ),
            ("store.composed_restores", self.composed_restores as f64),
            (
                "store.cache_hit_ratio",
                ratio(
                    st.cache_hits as f64,
                    (st.cache_hits + st.cache_misses) as f64,
                ),
            ),
            ("store.cache_evictions", st.cache_evictions as f64),
            ("store.wire_mb_down", mb(st.wire_bytes_downloaded)),
            ("store.wire_mb_up", mb(st.wire_bytes_uploaded)),
            (
                "store.decompress_share",
                ratio(st.decompress_us, self.restore_total_us),
            ),
            ("sim.peak_pending", self.peak_pending as f64),
            ("sim.replay_events_per_s", replay_events_per_s),
            (
                "cluster.hit_rate",
                if cluster {
                    self.locality.hit_rate()
                } else {
                    0.0
                },
            ),
            ("cluster.remote_mb", mb(self.locality.remote_bytes)),
            ("cluster.spillovers", self.spillovers as f64),
            (
                "cluster.queue_delay_share",
                ratio(self.queue_delay_us, self.cluster_latency_us),
            ),
            ("cluster.peak_workers", f64::from(self.peak_workers)),
            (
                "forecast.pre_restores_issued",
                prov.pre_restores_issued as f64,
            ),
            (
                "forecast.use_ratio",
                ratio(
                    prov.pre_restores_used as f64,
                    prov.pre_restores_issued as f64,
                ),
            ),
            ("forecast.keepalive_gb_s", prov.keepalive_byte_s / 1e9),
            ("metrics.summarize_s", spans.busy_s("metrics.summarize")),
            ("metrics.samples", self.latency_samples as f64),
        ]
    }
}
