//! Workspace-local, offline subset of the `criterion` API.
//!
//! Benchmarks really measure wall-clock time: each `bench_function`
//! calibrates an iteration count, takes several timed samples, and
//! reports the best per-iteration time (plus MB/s when a
//! [`Throughput`] was declared on the group).
//!
//! As in the real crate, the command line selects what runs: the first
//! positional argument keeps only benchmarks whose `group/id` contains
//! it (`cargo bench --bench substrates -- workload_generate`), and
//! benchmarks are timed only when cargo passes `--bench`. Without it
//! (`cargo test --benches`) each closure runs once, untimed, so a bench
//! that panics fails the test run.
//!
//! When the `PRONGHORN_BENCH_JSON` environment variable names a file,
//! every result is appended to it as one JSON object per line — the
//! hook `scripts/bench_codec.sh` uses to assemble `BENCH_grid.json`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Declared work per iteration, used to derive throughput rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortizes setup (accepted for API compatibility;
/// setup is always excluded from timing here).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    target_time: Duration,
    /// Substring a benchmark's `group/id` must contain to run.
    filter: Option<String>,
    /// Time the benchmarks (`--bench`), or run each closure once.
    timed: bool,
}

impl Default for Criterion {
    /// Reads the filter and the mode from the process's arguments.
    fn default() -> Self {
        let (filter, timed) = parse_args(std::env::args().skip(1));
        Criterion {
            sample_size: 10,
            target_time: Duration::from_millis(300),
            filter,
            timed,
        }
    }
}

/// The libtest flags whose value is the next argument, which must not be
/// taken for the filter.
const FLAGS_WITH_VALUE: [&str; 7] = [
    "--color",
    "--format",
    "--logfile",
    "--shuffle-seed",
    "--skip",
    "--test-threads",
    "-Z",
];

/// The filter (the first argument that is neither a flag nor a flag's
/// value) and whether `--bench` was passed.
fn parse_args(args: impl IntoIterator<Item = String>) -> (Option<String>, bool) {
    let (mut filter, mut timed) = (None, false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--bench" {
            timed = true;
        } else if FLAGS_WITH_VALUE.contains(&arg.as_str()) {
            args.next();
        } else if !arg.starts_with('-') && filter.is_none() {
            filter = Some(arg);
        }
    }
    (filter, timed)
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            target_time: self.target_time,
            throughput: None,
            criterion: self,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run("", id, self.sample_size, self.target_time, None, f);
        self
    }

    /// Runs one benchmark if its label passes the filter: timed, or once.
    fn run<F: FnMut(&mut Bencher)>(
        &self,
        group: &str,
        id: &str,
        sample_size: usize,
        target_time: Duration,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let label = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        if self.filter.as_ref().is_some_and(|s| !label.contains(s)) {
            return;
        }
        if self.timed {
            run_benchmark(group, id, &label, sample_size, target_time, throughput, f);
        } else {
            f(&mut Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            });
            println!("Testing {label}: Success");
        }
    }
}

/// A named group sharing throughput and sample-count settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    target_time: Duration,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the measurement time budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.target_time = t;
        self
    }

    /// Declares the work performed by one iteration.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        self.criterion.run(
            &self.name,
            &id.into(),
            self.sample_size,
            self.target_time,
            self.throughput,
            f,
        );
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Passed to benchmark closures; records what to measure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &str,
    label: &str,
    sample_size: usize,
    target_time: Duration,
    throughput: Option<Throughput>,
    mut f: F,
) {
    // Calibration: one iteration to estimate per-iter cost.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let warmup_ns = bencher.elapsed.as_nanos().max(1);
    let budget_ns = target_time.as_nanos() / sample_size.max(1) as u128;
    let iters = (budget_ns / warmup_ns).clamp(1, 1_000_000) as u64;

    // Timed samples; report the minimum (least-noise) per-iter time.
    let mut best_ns = f64::INFINITY;
    for _ in 0..sample_size {
        bencher.iters = iters;
        f(&mut bencher);
        let per_iter = bencher.elapsed.as_nanos() as f64 / iters as f64;
        if per_iter < best_ns {
            best_ns = per_iter;
        }
    }

    let mut line = format!("bench: {label:<48} {}/iter", format_ns(best_ns));
    let mut rate = None;
    if let Some(t) = throughput {
        let (amount, unit) = match t {
            Throughput::Bytes(n) => (n as f64, "MB/s"),
            Throughput::Elements(n) => (n as f64, "Melem/s"),
        };
        let per_sec = amount / (best_ns / 1e9) / 1e6;
        rate = Some((amount, per_sec));
        let _ = write!(line, "  ({per_sec:.1} {unit})");
    }
    println!("{line}");

    if let Ok(path) = std::env::var("PRONGHORN_BENCH_JSON") {
        if !path.is_empty() {
            let mut json = format!(
                "{{\"group\":{:?},\"bench\":{:?},\"ns_per_iter\":{:.1}",
                group, id, best_ns
            );
            if let Some((amount, per_sec)) = rate {
                let _ = write!(
                    json,
                    ",\"work_per_iter\":{amount},\"rate_m_per_s\":{per_sec:.2}"
                );
            }
            json.push('}');
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = writeln!(file, "{json}");
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundles benchmark functions into one runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(filter: Option<&str>, timed: bool) -> Criterion {
        Criterion {
            sample_size: 3,
            target_time: Duration::from_millis(5),
            filter: filter.map(str::to_string),
            timed,
        }
    }

    fn args(list: &[&str]) -> (Option<String>, bool) {
        parse_args(list.iter().map(|a| a.to_string()))
    }

    #[test]
    fn bench_function_reports_plausible_time() {
        let mut c = criterion(None, true);
        let mut group = c.benchmark_group("compat");
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn arguments_give_the_filter_and_the_mode() {
        assert_eq!(args(&[]), (None, false));
        assert_eq!(args(&["--bench"]), (None, true));
        assert_eq!(
            args(&["--bench", "workload_generate"]),
            (Some("workload_generate".into()), true)
        );
        // Only the first argument that is not a flag filters.
        assert_eq!(args(&["--quiet", "a", "b"]), (Some("a".into()), false));
        assert_eq!(
            args(&["--exact", "kernels", "--bench"]),
            (Some("kernels".into()), true)
        );
        // A flag's value is not the filter.
        assert_eq!(
            args(&["--test-threads", "1", "--color", "never", "kernels"]),
            (Some("kernels".into()), false)
        );
        assert_eq!(
            args(&["--skip", "x", "--format", "terse", "--bench"]),
            (None, true)
        );
        assert_eq!(args(&["--test-threads=1", "a"]), (Some("a".into()), false));
    }

    /// Calls of each benchmark's closure under `c`, in declaration order.
    fn closure_calls(mut c: Criterion) -> [usize; 3] {
        let mut calls = [0; 3];
        let mut group = c.benchmark_group("compat");
        group.bench_function("sum", |b| {
            calls[0] += 1;
            b.iter(|| 1)
        });
        group.bench_function("sum_batched", |b| {
            calls[1] += 1;
            b.iter_batched(|| 1, |x| x, BatchSize::SmallInput)
        });
        group.finish();
        c.bench_function("ungrouped", |b| {
            calls[2] += 1;
            b.iter(|| 1)
        });
        calls
    }

    #[test]
    fn filter_keeps_only_labels_that_contain_it() {
        assert_eq!(
            closure_calls(criterion(Some("compat/sum"), false)),
            [1, 1, 0]
        );
        assert_eq!(closure_calls(criterion(Some("batched"), false)), [0, 1, 0]);
        assert_eq!(
            closure_calls(criterion(Some("ungrouped"), false)),
            [0, 0, 1]
        );
        assert_eq!(closure_calls(criterion(Some("absent"), true)), [0, 0, 0]);
    }

    #[test]
    fn only_bench_mode_times() {
        // Untimed: each closure once; timed: calibration plus 3 samples.
        assert_eq!(closure_calls(criterion(None, false)), [1, 1, 1]);
        assert_eq!(
            closure_calls(criterion(Some("compat/sum"), true)),
            [4, 4, 0]
        );
    }
}
