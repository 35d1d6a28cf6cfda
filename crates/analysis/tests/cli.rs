//! End-to-end tests of the `pronglint` binary: exit codes of the one
//! gate, and the real workspace staying clean.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

fn pronglint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pronglint"))
        .args(args)
        .output()
        .expect("spawn pronglint")
}

/// A scratch workspace seeded with one D1 violation in a sim-visible crate.
struct SeededWorkspace {
    root: PathBuf,
}

impl SeededWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("pronglint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src = root.join("crates").join("core").join("src");
        fs::create_dir_all(&src).unwrap();
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n\
             #![warn(missing_docs)]\n\
             //! Seeded fixture crate.\n\
             use std::collections::HashMap;\n\
             /// Violates unordered-iter.\n\
             pub struct Bad(pub HashMap<u32, u32>);\n",
        )
        .unwrap();
        SeededWorkspace { root }
    }

    fn root(&self) -> &str {
        self.root.to_str().unwrap()
    }
}

impl Drop for SeededWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let start = std::time::Instant::now();
    let out = pronglint(&["--root", root.to_str().unwrap()]);
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "pronglint must pass on the workspace; output:\n{stdout}"
    );
    assert!(stdout.contains("pronglint: OK"));
    // The full pipeline (walk, parse, call graph, T1/C1/P1/K1, audit)
    // must stay cheap enough to run on every CI push.
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "workspace analysis took {elapsed:?}, budget is 10s"
    );
}

#[test]
fn seeded_violation_fails_with_exit_code_one() {
    let ws = SeededWorkspace::new("seeded");
    let out = pronglint(&["--root", ws.root()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crates/core/src/lib.rs:4: [unordered-iter]"));
    // Two findings: the `use` line and the struct field.
    assert!(stdout.contains("pronglint: FAILED — 2 finding(s)"));
}

#[test]
fn interprocedural_finding_alone_fails_with_exit_code_one() {
    let ws = SeededWorkspace::new("xseeded");
    // Replace the D1 seed with a C1 one: an unchecked `+=` on a byte
    // counter plus a declaration no test pins down.
    fs::write(
        ws.root.join("crates/core/src/lib.rs"),
        "#![forbid(unsafe_code)]\n\
         #![warn(missing_docs)]\n\
         //! Byte-counter fixture crate.\n\
         /// Accounting state.\n\
         pub struct Meter {\n\
             /// Bytes moved so far.\n\
             pub bytes_transferred: u64,\n\
         }\n\
         impl Meter {\n\
             /// Records a transfer.\n\
             pub fn add(&mut self, n: u64) {\n\
                 self.bytes_transferred += n;\n\
             }\n\
         }\n",
    )
    .unwrap();
    let out = pronglint(&["--root", ws.root()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rules: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_once(": [")?.1.split_once(']'))
        .map(|(rule, _)| rule)
        .collect();
    assert!(!rules.is_empty(), "no findings reported:\n{stdout}");
    assert!(
        rules.iter().all(|&r| r == "byte-conservation"),
        "only the interprocedural rule may fire:\n{stdout}"
    );
}

#[test]
fn explain_prints_rule_rationale() {
    let out = pronglint(&["--explain", "determinism-taint"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("determinism-taint"));
    // Unknown rules are a usage error and list the valid ids.
    let out = pronglint(&["--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unordered-iter"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = pronglint(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn removed_flags_are_usage_errors() {
    for flag in [
        "--json",
        "--validate-json",
        "--baseline",
        "--update-baseline",
    ] {
        let out = pronglint(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
}
