//! End-to-end tests of the `experiments` binary: flag order must not
//! matter, invalid thread counts must fail loudly with a usage error
//! rather than being silently clamped, the experiment list must name
//! exactly the committed `results/` files, and a file that cannot be
//! saved must fail the run.
//!
//! The run banner prints before any command executes, and an unknown
//! command fails right after it — so the parsed context is observable
//! without paying for a full experiment.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    run_in(Path::new("."), args)
}

fn run_in(dir: &Path, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pronghorn-experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn experiments binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn quick_after_seed_does_not_clobber_it() {
    let (stdout, _, ok) = run(&["no-such-command", "--seed", "7", "--quick"]);
    assert!(!ok, "unknown command must fail");
    assert!(stdout.contains("seed=0x7"), "banner: {stdout}");
    // Quick's reduced invocation count still applies.
    assert!(stdout.contains("invocations=150"), "banner: {stdout}");
}

#[test]
fn flag_order_is_irrelevant() {
    let (a, _, _) = run(&["no-such-command", "--seed", "7", "--quick"]);
    let (b, _, _) = run(&["no-such-command", "--quick", "--seed", "7"]);
    let banner_a = a.lines().next().unwrap_or_default();
    let banner_b = b.lines().next().unwrap_or_default();
    assert_eq!(banner_a, banner_b, "order must not change the context");
}

#[test]
fn quick_overridden_by_explicit_invocations() {
    let (stdout, _, _) = run(&["no-such-command", "--invocations", "77", "--quick"]);
    assert!(stdout.contains("invocations=77"), "banner: {stdout}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    let (stdout, stderr, ok) = run(&["fig1", "--quick", "--threads", "0"]);
    assert!(!ok, "--threads 0 must fail");
    assert!(
        stderr.contains("--threads must be >= 1"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    // Rejected at parse time: no banner, nothing ran.
    assert!(
        !stdout.contains("pronghorn experiments"),
        "stdout: {stdout}"
    );
}

#[test]
fn banner_shows_effective_thread_count() {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // A request beyond the machine's parallelism is capped, and the cap
    // is surfaced in the banner rather than silently applied.
    let (stdout, _, _) = run(&["no-such-command", "--threads", "9999"]);
    assert!(
        stdout.contains(&format!("threads={}", 9999usize.min(hw))),
        "banner: {stdout}"
    );
    assert!(
        stdout.contains("capped at") && stdout.contains("available parallelism"),
        "banner: {stdout}"
    );
    // A request the machine can satisfy passes through uncapped.
    let (stdout, _, _) = run(&["no-such-command", "--threads", "1"]);
    assert!(stdout.contains("threads=1"), "banner: {stdout}");
    assert!(!stdout.contains("capped at"), "banner: {stdout}");
}

#[test]
fn missing_flag_values_are_reported() {
    let (_, stderr, ok) = run(&["fig1", "--seed"]);
    assert!(!ok);
    assert!(stderr.contains("--seed needs a value"), "stderr: {stderr}");
}

#[test]
fn the_experiment_list_writes_exactly_the_committed_results() {
    // No arguments: the usage error lists every command with its files.
    let (_, usage, ok) = run(&[]);
    assert!(!ok);
    let mut commands = Vec::new();
    let mut listed = Vec::new();
    for line in usage.lines().skip_while(|l| *l != "commands:").skip(1) {
        commands.push(line.split_whitespace().next().unwrap_or_default());
        if let Some((_, files)) = line.split_once(" -> ") {
            listed.extend(files.split(", ").map(str::to_string));
        }
    }
    assert_eq!(commands.len(), 16, "15 experiments and `all`:\n{usage}");
    assert_eq!(commands.last(), Some(&"all"), "{usage}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut committed: Vec<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| {
            name.ends_with(".csv") || name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    committed.sort();
    listed.sort();
    assert_eq!(committed.len(), 15 + 6, "{committed:?}");
    assert_eq!(listed, committed);
}

#[test]
fn a_results_file_that_cannot_be_saved_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("pronghorn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // A plain file where the `results/` directory should be.
    std::fs::write(dir.join("results"), "").expect("plain file");
    let (stdout, stderr, ok) = run_in(&dir, &["table1", "--quick"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!ok, "a failed write must fail the run: {stdout}");
    assert!(
        stdout.contains("Table 1"),
        "the table still prints: {stdout}"
    );
    assert!(stderr.contains("could not save table1.csv"), "{stderr}");
}
