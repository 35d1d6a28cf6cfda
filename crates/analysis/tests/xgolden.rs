//! Golden tests for the interprocedural T1/C1/P1/K1 rules: each fixture
//! under `tests/fixtures/x/` is a miniature multi-file workspace. Files
//! are separated by `//@ file: <repo-relative path>` headers; each
//! section is classified exactly as the workspace walker would classify
//! the same path on disk, then the whole set runs through
//! [`analyze_units`] — call graph, suppression pass, audit and all.
//!
//! The paired `*.expected` file lists `path:line rule` per finding (or
//! the single word `none`), in the engine's sorted output order.

#![forbid(unsafe_code)]

use analysis::{analyze_units, Finding, SourceUnit};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("x")
}

/// Splits a fixture into source units on its `//@ file:` headers.
fn units_of(fixture: &str) -> Vec<SourceUnit> {
    let mut units = Vec::new();
    let mut path: Option<String> = None;
    let mut body = String::new();
    let flush = |units: &mut Vec<SourceUnit>, path: Option<String>, body: &mut String| {
        if let Some(p) = path {
            let crate_name = match *p.split('/').collect::<Vec<_>>().as_slice() {
                ["crates", name, ..] => name.to_string(),
                _ => "pronghorn".to_string(),
            };
            units.push(SourceUnit {
                ctx: analysis::classify(&crate_name, &p),
                src: std::mem::take(body),
            });
        }
    };
    for line in fixture.lines() {
        if let Some(p) = line.strip_prefix("//@ file:") {
            flush(&mut units, path.take(), &mut body);
            path = Some(p.trim().to_string());
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    flush(&mut units, path, &mut body);
    assert!(!units.is_empty(), "fixture has no `//@ file:` sections");
    units
}

fn parse_expected(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "none")
        .map(str::to_string)
        .collect()
}

/// Runs a fixture through the engine, checks findings against the golden
/// file, and returns them for case-specific assertions (chains etc.).
fn check_fixture(stem: &str) -> Vec<Finding> {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join(format!("{stem}.rs.txt"))).unwrap();
    let expected =
        parse_expected(&std::fs::read_to_string(dir.join(format!("{stem}.expected"))).unwrap());
    let findings = analyze_units(&units_of(&src));
    let got: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} {}", f.file, f.line, f.rule))
        .collect();
    assert_eq!(
        got, expected,
        "fixture `{stem}` findings diverge from golden file"
    );
    findings
}

#[test]
fn t1_taint_crosses_the_crate_boundary_with_chain() {
    let findings = check_fixture("t1_taint_chain");
    // The finding sits on the crossing edge and carries the full chain
    // down to the unordered iteration; the det-order-marked sibling
    // produced nothing.
    let chain: Vec<&str> = findings[0].chain.iter().map(|c| c.func.as_str()).collect();
    assert_eq!(chain, ["decide", "pick_any"]);
    assert_eq!(findings[0].chain[1].file, "crates/workloads/src/helper.rs");
}

#[test]
fn c1_flags_bare_mutation_and_uncovered_field_only() {
    let findings = check_fixture("c1_byte_counters");
    // Line 5 is the coverage gap (`pinned_nominal_bytes` never pinned by
    // a test), line 10 the unchecked `+=`; the `saturating_add` sites
    // and the test-covered fields are clean.
    assert!(findings[0].message.contains("pinned_nominal_bytes"));
    assert!(findings[1].message.contains("bytes_transferred"));
}

#[test]
fn p1_reaches_a_panic_across_crates() {
    // From the platform's `run` entry point; the wrapper next to it is
    // not an entry, so its own panic is not reported.
    let findings = check_fixture("p1_panic_reach");
    let chain = |f: &Finding| f.chain.iter().map(|c| c.func.clone()).collect::<Vec<_>>();
    assert_eq!(chain(&findings[0]), ["run", "pop_next"]);
    assert!(findings[0].message.contains("platform::run"));
    // From a policy crate's public function.
    assert_eq!(chain(&findings[1]), ["plan", "fetch_len"]);
    assert!(findings[1].message.contains("core::plan"));
}

#[test]
fn k1_flags_schedule_ord_and_heap_misuse() {
    check_fixture("k1_kernel_misuse");
}

#[test]
fn interprocedural_findings_are_suppressible_and_audited() {
    // The allow on the crossing line swallows the T1 finding; the
    // dormant wall-clock allow is reported by the audit.
    let findings = check_fixture("suppression_audit");
    assert!(findings[0].message.contains("wall-clock"));
}

#[test]
fn every_x_fixture_has_a_test() {
    let mut stems: Vec<String> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_suffix(".rs.txt")
                .map(str::to_string)
        })
        .collect();
    stems.sort();
    assert_eq!(
        stems,
        [
            "c1_byte_counters",
            "k1_kernel_misuse",
            "p1_panic_reach",
            "suppression_audit",
            "t1_taint_chain",
        ]
    );
}
