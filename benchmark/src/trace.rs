//! The traced run's instrumentation. Every span is recorded from the
//! benchmark's side of a call into the program: a root span around each
//! runner call, a delegating [`Workload`] wrapper, a counting iterator
//! around the arrival stream, and the benchmark's own post-run summary.
//! Spans stay in memory and are written out once, when the repetition
//! ends. Calls within one cell are aggregated per span name, so a
//! million-arrival replay still yields a handful of records.

use pronghorn_jit::{MethodProfile, RequestWork, RuntimeKind, RuntimeProfile};
use pronghorn_sim::SimTime;
use pronghorn_workloads::{InputVariance, Workload};
use rand::RngCore;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Host clock shared by every span of one repetition.
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// Starts the clock.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// Every call to one span name within one cell, folded together. Atomic
/// because [`Workload`] must be `Sync`; the counters publish nothing else,
/// so relaxed ordering suffices.
pub struct SpanAgg {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl SpanAgg {
    /// An aggregate with no calls.
    pub fn new() -> Self {
        SpanAgg {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
            last_ns: AtomicU64::new(0),
        }
    }

    /// Folds in one call that ran from `start_ns` to `end_ns`.
    pub fn record(&self, start_ns: u64, end_ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(end_ns.saturating_sub(start_ns), Ordering::Relaxed);
        self.first_ns.fetch_min(start_ns, Ordering::Relaxed);
        self.last_ns.fetch_max(end_ns, Ordering::Relaxed);
    }

    /// Calls folded in.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed duration of the calls.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

impl Default for SpanAgg {
    fn default() -> Self {
        SpanAgg::new()
    }
}

/// Runs `f` as one call of `span`.
fn timed<T>(clock: &Clock, span: &SpanAgg, f: impl FnOnce() -> T) -> T {
    let start = clock.now_ns();
    let out = f();
    span.record(start, clock.now_ns());
    out
}

/// A [`Workload`] that delegates every method to `inner`, timing
/// `generate` and the two profile calls. It changes no result: the
/// transparency test compares digests with and without it.
pub struct TimedWorkload<'a> {
    inner: &'a dyn Workload,
    clock: &'a Clock,
    /// `workloads.generate`: one call per simulated request.
    pub generate: SpanAgg,
    /// `workloads.profile`: `runtime_profile` and `method_profiles`, once
    /// per worker start.
    pub profile: SpanAgg,
}

impl<'a> TimedWorkload<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Workload, clock: &'a Clock) -> Self {
        TimedWorkload {
            inner,
            clock,
            generate: SpanAgg::new(),
            profile: SpanAgg::new(),
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> RuntimeKind {
        self.inner.kind()
    }

    fn runtime_profile(&self) -> RuntimeProfile {
        timed(self.clock, &self.profile, || self.inner.runtime_profile())
    }

    fn method_profiles(&self) -> Vec<MethodProfile> {
        timed(self.clock, &self.profile, || self.inner.method_profiles())
    }

    fn generate(&self, rng: &mut dyn RngCore, variance: InputVariance) -> RequestWork {
        timed(self.clock, &self.generate, || {
            self.inner.generate(rng, variance)
        })
    }

    fn io_bound(&self) -> bool {
        self.inner.io_bound()
    }

    fn io_stale_sensitivity(&self) -> f64 {
        self.inner.io_stale_sensitivity()
    }
}

/// Counts the arrivals a stream yields — the benchmark's own count of
/// attempted requests — and, in a traced run, times every `next` as
/// `traces.stream`.
pub struct CountingArrivals<'a, I> {
    inner: I,
    /// Arrivals yielded so far.
    pub count: u64,
    timer: Option<(&'a Clock, &'a SpanAgg)>,
}

impl<'a, I: Iterator<Item = SimTime>> CountingArrivals<'a, I> {
    /// Wraps `inner`; `timer` is `None` in untimed runs.
    pub fn new(inner: I, timer: Option<(&'a Clock, &'a SpanAgg)>) -> Self {
        CountingArrivals {
            inner,
            count: 0,
            timer,
        }
    }
}

impl<I: Iterator<Item = SimTime>> Iterator for CountingArrivals<'_, I> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let next = match self.timer {
            Some((clock, span)) => timed(clock, span, || self.inner.next()),
            None => self.inner.next(),
        };
        if next.is_some() {
            self.count += 1;
        }
        next
    }
}

/// One span as written to the trace file.
#[derive(Debug)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `workloads.generate`.
    pub name: &'static str,
    /// Unique within one repetition.
    pub id: u32,
    /// The span that caused this one; `None` for the repetition root.
    pub parent: Option<u32>,
    /// Start of the first call, ns since the clock started.
    pub start_ns: u64,
    /// End of the last call.
    pub end_ns: u64,
    /// Summed duration of the calls.
    pub busy_ns: u64,
    /// Calls folded into this record.
    pub calls: u64,
}

/// The spans of one repetition.
#[derive(Debug, Default)]
pub struct Spans {
    records: Vec<SpanRecord>,
}

impl Spans {
    /// Records a span that ran once, returning its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.push_record(
            name,
            parent,
            start_ns,
            end_ns,
            end_ns.saturating_sub(start_ns),
            1,
        )
    }

    /// Sets the end of a span opened by [`Spans::push`], once its
    /// children are recorded.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        let r = &mut self.records[id as usize];
        r.end_ns = end_ns;
        r.busy_ns = end_ns.saturating_sub(r.start_ns);
    }

    /// Records an aggregate under `parent`; an aggregate with no calls
    /// records nothing.
    pub fn push_agg(&mut self, name: &'static str, parent: u32, agg: &SpanAgg) {
        let calls = agg.calls();
        if calls > 0 {
            let first = agg.first_ns.load(Ordering::Relaxed);
            let last = agg.last_ns.load(Ordering::Relaxed);
            self.push_record(name, Some(parent), first, last, agg.busy_ns(), calls);
        }
    }

    fn push_record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        calls: u64,
    ) -> u32 {
        let id = u32::try_from(self.records.len()).expect("fewer than 2^32 spans");
        self.records.push(SpanRecord {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            busy_ns,
            calls,
        });
        id
    }

    /// Summed busy time of every record named `name`, seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(|r| r.busy_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Summed calls of every record named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|r| r.calls).sum()
    }

    /// A span's self time: its busy time minus what its children cover.
    /// Children of one span never overlap (the run is single-threaded and
    /// the instrumented calls do not nest), so the cover is their sum.
    pub fn self_ns(&self, id: u32) -> u64 {
        let children: u64 = self
            .records
            .iter()
            .filter(|r| r.parent == Some(id))
            .map(|r| r.busy_ns)
            .sum();
        self.records[id as usize].busy_ns.saturating_sub(children)
    }

    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s SpanRecord> {
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for r in &self.records {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                r.name,
                r.id,
                parent,
                r.start_ns,
                r.end_ns,
                r.busy_ns,
                self.self_ns(r.id),
                r.calls
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_fold_calls() {
        let agg = SpanAgg::new();
        agg.record(10, 15);
        agg.record(20, 30);
        let mut spans = Spans::default();
        let root = spans.push("rep", None, 0, 100);
        spans.push_agg("workloads.generate", root, &agg);
        spans.push_agg("traces.stream", root, &SpanAgg::new());
        assert_eq!(spans.records.len(), 2);
        let g = &spans.records[1];
        assert_eq!((g.start_ns, g.end_ns, g.busy_ns, g.calls), (10, 30, 15, 2));
        assert_eq!(spans.self_ns(root), 85);
        assert_eq!(spans.calls("workloads.generate"), 2);
        assert!((spans.busy_s("rep") - 100e-9).abs() < 1e-18);
    }

    #[test]
    fn counting_iterator_counts_and_times() {
        let clock = Clock::new();
        let span = SpanAgg::new();
        let times = (1..=5).map(SimTime::from_micros);
        let mut it = CountingArrivals::new(times, Some((&clock, &span)));
        assert_eq!(it.by_ref().count(), 5);
        assert_eq!(it.count, 5);
        // The exhausting call is timed too.
        assert_eq!(span.calls(), 6);
    }
}
