//! Smoke tests at `Scale::QUICK`: every workload runs, passes its checks,
//! prints exactly the catalog's metric names, and is unchanged by the
//! traced run's wrappers. The catalog itself is held equal to
//! `BENCHMARK.json` at the repository root.

use pronghorn_benchmark::plan::{plan, Scale, Scenario};
use pronghorn_benchmark::rep::run_rep;
use pronghorn_benchmark::report::{MetricDef, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use std::collections::BTreeSet;
use std::process::Command;

const SEED: u64 = 0x9e37_79b9;

fn names<'a>(it: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    it.map(str::to_string).collect()
}

#[test]
fn wrappers_are_transparent_and_outputs_check() {
    for scenario in Scenario::ALL {
        let quick = plan(scenario, SEED, &Scale::QUICK);
        let bare = run_rep(&quick, false);
        let traced = run_rep(&quick, true);
        assert_eq!(bare.digest, traced.digest, "{}", scenario.name());
        assert!(bare.failures.is_empty(), "{:?}", bare.failures);
        assert_eq!(bare.failed, 0);
        assert!(bare.attempted > 0);
        assert_eq!(bare.digest, run_rep(&quick, false).digest);
        let other_seed = run_rep(&plan(scenario, SEED + 1, &Scale::QUICK), false);
        assert_ne!(bare.digest, other_seed.digest, "{}", scenario.name());

        // The repetition prints every catalog name: end-to-end ones less
        // the two the process measures, per-layer ones less the one the
        // run derives.
        let e2e = names(bare.end_to_end.iter().map(|(n, _)| *n));
        let want = names(
            END_TO_END
                .iter()
                .map(|m| m.name)
                .filter(|n| !["setup_s", "peak_rss_mb"].contains(n)),
        );
        assert_eq!(e2e, want);
        assert!(bare.layers.is_empty());
        let layers = names(traced.layers.iter().map(|(n, _)| *n));
        let want = names(
            PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|n| *n != TRACE_OVERHEAD),
        );
        assert_eq!(layers, want);
        for (name, value) in bare.end_to_end.iter().chain(&traced.layers) {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}

#[test]
fn layer_counters_belong_to_their_workloads() {
    for scenario in Scenario::ALL {
        let out = run_rep(&plan(scenario, SEED, &Scale::QUICK), true);
        let get = |name: &str| {
            out.layers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let cluster = scenario == Scenario::ClusterFleet;
        let production = scenario == Scenario::ProductionReplay;
        assert_eq!(
            get("cluster.spillovers") + get("cluster.remote_mb") > 0.0,
            cluster
        );
        assert_eq!(get("forecast.pre_restores_issued") > 0.0, production);
        assert_eq!(get("traces.arrivals") > 0.0, production);
        assert!(get("workloads.generate_calls") > 0.0);
        assert!(get("workloads.generate_share") > 0.0 && get("workloads.generate_share") < 1.0);
    }
}

/// The measured run, end to end through child processes.
fn run_binary(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pronghorn-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--quick",
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn metric_names(line: &str) -> BTreeSet<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    // Every piece but the last ends with `"<name>": `.
    let pieces: Vec<&str> = metrics.split("{\"value\"").collect();
    names(
        pieces[..pieces.len() - 1]
            .iter()
            .map(|p| p.rsplit('"').nth(1).expect("quoted name")),
    )
}

#[test]
fn quick_runs_print_the_catalog() {
    for scenario in Scenario::ALL {
        let line = run_binary(scenario.name(), "0");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{line}");
        assert_eq!(
            metric_names(&line),
            names(END_TO_END.iter().map(|m| m.name))
        );
    }
    let line = run_binary("production-replay", "1");
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    assert_eq!(metric_names(&line), names(PER_LAYER.iter().map(|m| m.name)));
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("pronghorn-benchmark/trace-production-replay.jsonl");
    let spans = std::fs::read_to_string(trace).expect("trace written");
    assert!(spans
        .lines()
        .any(|l| l.contains("\"name\":\"traces.stream\"")));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_pronghorn-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

/// The text of each object in one array of `BENCHMARK.json`, a flat file
/// this repository writes (no nested arrays, no braces in strings), so a
/// scanner suffices.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split('{').skip(1).collect()
}

/// One field of an object, string quotes removed.
fn field(obj: &str, name: &str) -> Option<String> {
    let at = obj.find(&format!("\"{name}\""))? + name.len() + 2;
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    let value = match rest.strip_prefix('"') {
        Some(quoted) => &quoted[..quoted.find('"')?],
        None => rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim(),
    };
    Some(value.to_string())
}

type Entry = (String, String, String, Option<f64>);

fn entries(json: &str, key: &str) -> Vec<Entry> {
    objects(json, key)
        .into_iter()
        .map(|obj| {
            (
                field(obj, "name").expect("name"),
                field(obj, "unit").expect("unit"),
                field(obj, "better").expect("better"),
                field(obj, "bound").map(|b| b.parse().expect("numeric bound")),
            )
        })
        .collect()
}

fn catalog(defs: &[MetricDef]) -> Vec<Entry> {
    defs.iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(entries(&json, "end_to_end"), catalog(&END_TO_END));
    assert_eq!(entries(&json, "per_layer"), catalog(&PER_LAYER));
    let workloads: Vec<String> = objects(&json, "workloads")
        .into_iter()
        .map(|obj| field(obj, "name").expect("name"))
        .collect();
    let want: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(workloads, want);
}
