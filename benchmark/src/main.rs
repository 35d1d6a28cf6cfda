//! `pronghorn-benchmark`: measures one workload for a fixed time and
//! prints every metric, the last line as one JSON object.
//!
//! ```text
//! pronghorn-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! pronghorn-benchmark rep --workload W --seed N [--traced] [--quick]
//! ```
//!
//! The first form is the run: it starts one untimed warm-up repetition,
//! then timed repetitions until `S` seconds have passed, each in a fresh
//! child process (the second form), so no memo carries over between
//! repetitions and peak RSS is a per-repetition number. With `--trace 1`
//! traced and untraced repetitions alternate, and the run prints the
//! per-layer metrics instead of the end-to-end ones.

#![forbid(unsafe_code)]

use pronghorn_benchmark::plan::{plan, Scale, Scenario};
use pronghorn_benchmark::rep::run_rep;
use pronghorn_benchmark::report::{result_line, MetricDef, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use pronghorn_benchmark::stats::{median, quartiles, resolved, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str =
    "usage: pronghorn-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
       pronghorn-benchmark rep --workload W --seed N [--traced] [--quick]
workloads: paper-grid, restore-chain, cluster-fleet, production-replay";

/// Timed repetitions a run takes at least, however long they last.
const MIN_REPS: usize = 3;

/// Parsed command line.
struct Args {
    rep: bool,
    scenario: Scenario,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let rep = args.first().is_some_and(|a| a == "rep");
    let mut scenario = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut it = args.iter().skip(usize::from(rep));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                scenario = Some(Scenario::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(parse_seed(v).ok_or(format!("bad seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(v.parse::<f64>().map_err(|_| format!("bad seconds {v}"))?);
            }
            "--trace" => match value()?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                v => return Err(format!("--trace takes 0 or 1, not {v}")),
            },
            "--traced" if rep => trace = Some(true),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}");
    Ok(Args {
        rep,
        scenario: scenario.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: match (rep, seconds) {
            (true, _) => 0.0,
            (false, Some(s)) if s >= 0.0 => s,
            (false, _) => return Err(missing("seconds")),
        },
        trace: match (rep, trace) {
            (true, t) => t.unwrap_or(false),
            (false, Some(t)) => t,
            (false, None) => return Err(missing("trace")),
        },
        quick,
    })
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(a) if a.rep => rep_main(entered, &a),
        Ok(a) => run_main(&a),
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process, MB, from `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Where a traced repetition writes its spans.
fn trace_path(scenario: Scenario) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target
        .join("pronghorn-benchmark")
        .join(format!("trace-{}.jsonl", scenario.name()))
}

/// One repetition, printed as `name value` lines for the run to parse.
fn rep_main(entered: Instant, a: &Args) -> ExitCode {
    let scale = if a.quick { Scale::QUICK } else { Scale::FULL };
    let plan = plan(a.scenario, a.seed, &scale);
    let setup_s = entered.elapsed().as_secs_f64();
    let out = run_rep(&plan, a.trace);
    let Some(rss) = peak_rss_mb() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    for failure in &out.failures {
        eprintln!("check failed: {failure}");
    }
    if a.trace {
        let path = trace_path(a.scenario);
        if let Err(e) = out.spans.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("digest {:016x}", out.digest);
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    for (name, value) in &out.outcomes {
        println!("outcome.{name} {value:?}");
    }
    println!("setup_s {setup_s:?}");
    println!("peak_rss_mb {rss:?}");
    for (name, value) in out.end_to_end.iter().chain(out.layers.iter()) {
        println!("{name} {value:?}");
    }
    ExitCode::SUCCESS
}

/// One child repetition's printed values.
struct Sample {
    digest: String,
    values: BTreeMap<String, f64>,
}

impl Sample {
    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Runs one repetition in a child process and waits for it.
fn spawn_rep(a: &Args, traced: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "rep",
        "--workload",
        a.scenario.name(),
        "--seed",
        &a.seed.to_string(),
    ]);
    if traced {
        cmd.arg("--traced");
    }
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let mut sample = Sample {
        digest: String::new(),
        values: BTreeMap::new(),
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        if key == "digest" {
            sample.digest = value.to_string();
        } else if let Ok(v) = value.parse() {
            sample.values.insert(key.to_string(), v);
        }
    }
    Ok(sample)
}

fn run_main(a: &Args) -> ExitCode {
    match run(a) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The run: warm-up, timed (and traced) repetitions, then the report.
/// Returns whether every output was correct.
fn run(a: &Args) -> Result<bool, String> {
    let warmup = spawn_rep(a, false)?;
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let min_traced = if a.trace { 2 } else { 0 };
    while started.elapsed().as_secs_f64() < a.seconds
        || untraced.len() < MIN_REPS
        || traced.len() < min_traced
    {
        untraced.push(spawn_rep(a, false)?);
        if a.trace {
            traced.push(spawn_rep(a, true)?);
        }
    }

    let all: Vec<&Sample> = std::iter::once(&warmup)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let attempted: f64 = all.iter().map(|s| s.get("attempted")).sum();
    let mut failed: f64 = all.iter().map(|s| s.get("failed")).sum();
    let mut correct = failed == 0.0;
    // Every repetition of one seed must simulate exactly the same thing,
    // traced or not.
    for s in &all {
        if s.digest != warmup.digest {
            println!("# sim_digest mismatch: {} != {}", s.digest, warmup.digest);
            failed += s.get("attempted");
            correct = false;
        }
    }
    println!(
        "# workload {} seed {} ({:#x})",
        a.scenario.name(),
        a.seed,
        a.seed
    );
    println!("# sim_digest {}", warmup.digest);
    println!(
        "# repetitions: 1 warm-up, {} untraced, {} traced",
        untraced.len(),
        traced.len()
    );
    for (key, value) in &warmup.values {
        if let Some(name) = key.strip_prefix("outcome.") {
            println!("# {name} {value}");
        }
    }

    let wall =
        |samples: &[Sample]| median(&samples.iter().map(|s| s.get("wall_s")).collect::<Vec<_>>());
    let (defs, samples): (&[MetricDef], &[Sample]) = if a.trace {
        (&PER_LAYER, &traced)
    } else {
        (&END_TO_END, &untraced)
    };
    let mut metrics = Vec::new();
    for def in defs {
        let values: Vec<f64> = if def.name == TRACE_OVERHEAD {
            vec![(wall(&traced) / wall(&untraced) - 1.0) * 100.0]
        } else {
            samples.iter().map(|s| s.get(def.name)).collect()
        };
        let m = median(&values);
        let (q1, q3) = quartiles(&values);
        let bound = def
            .bound
            .map(|b| {
                let verdict = if resolved(&values, b) {
                    "resolved"
                } else {
                    "UNRESOLVED"
                };
                format!(
                    ", spread {:.2}% of bound {:.0}%: {verdict}",
                    spread(&values) * 100.0,
                    b * 100.0
                )
            })
            .unwrap_or_default();
        println!(
            "# {:<32} {m:>14.6} {:<6} q1 {q1:.6} q3 {q3:.6} n {}{bound}",
            def.name,
            def.unit,
            values.len()
        );
        if !m.is_finite() {
            println!("# {} is not finite", def.name);
            correct = false;
        }
        metrics.push((def, m));
    }
    println!(
        "{}",
        result_line(correct, attempted as u64, failed as u64, &metrics)
    );
    Ok(correct)
}
