//! Workspace walker: finds the Rust sources pronglint analyzes and
//! classifies each one into a [`FileContext`].
//!
//! Scope: `crates/<name>/{src,tests,benches}` plus the workspace facade's
//! `src/` and `tests/`. The `compat/` stubs (API-subset stand-ins for
//! registry crates) and generated `target/` output are deliberately out of
//! scope — they model *other* crates' surfaces, not Pronghorn invariants.
//! Walk order is sorted by path so the output is deterministic.

use crate::rules::FileContext;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One file to analyze: its context plus absolute path on disk.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Rule-engine context (crate, repo-relative path, scopes).
    pub ctx: FileContext,
    /// Absolute path for reading.
    pub abs_path: PathBuf,
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the [`FileContext`] for a file at `rel` (repo-relative, forward
/// slashes) belonging to `crate_name`.
///
/// Harness files — anything under `tests/`, `benches/`, or `examples/` —
/// are *test scope* (the determinism rules guard the sim contract, not
/// demo/driver code) but each file sitting directly in such a directory
/// is **its own crate root**, so the D4 hygiene rule
/// (`#![forbid(unsafe_code)]`) applies to every one of them.
pub fn classify(crate_name: &str, rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    // Test scope = a crate-level (or workspace-root) harness directory.
    // `src/benches/` and friends are ordinary library modules — code the
    // simulation really runs — and get no test exemption.
    let harness_dir = match parts.as_slice() {
        ["crates", _, d, ..] => Some(*d),
        [d, ..] if *d != "crates" => Some(*d),
        _ => None,
    }
    .filter(|d| matches!(*d, "tests" | "benches" | "examples"));
    let is_test_file = harness_dir.is_some();
    let is_lib_root = rel.ends_with("src/lib.rs");
    let is_bin_root = rel.ends_with("src/main.rs") || rel.contains("/src/bin/");
    // `crates/<c>/tests/f.rs` (likewise benches/examples) and the root
    // `tests/f.rs` / `examples/f.rs` each compile as a separate crate;
    // deeper files (`tests/common/mod.rs`) are modules of some root.
    let is_harness_root =
        harness_dir.is_some() && parts.len() == 2 + 2 * (parts[0] == "crates") as usize;
    FileContext {
        crate_name: crate_name.to_string(),
        path: rel.to_string(),
        is_test_file,
        is_crate_root: is_lib_root || is_bin_root || is_harness_root,
        is_lib_root,
    }
}

/// Walks the workspace rooted at `root`, returning every source file in
/// pronglint's scope, sorted by repo-relative path.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = if crates_dir.is_dir() {
        fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect()
    } else {
        Vec::new()
    };
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let Some(name) = crate_dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let name = name.to_string();
        for sub in ["src", "tests", "benches", "examples"] {
            let mut paths = Vec::new();
            rust_files(&crate_dir.join(sub), &mut paths)?;
            for abs in paths {
                if let Some(rel) = relativize(root, &abs) {
                    files.push(SourceFile {
                        ctx: classify(&name, &rel),
                        abs_path: abs,
                    });
                }
            }
        }
    }
    // The workspace facade crate (`pronghorn`) at the root.
    for sub in ["src", "tests", "examples"] {
        let mut paths = Vec::new();
        rust_files(&root.join(sub), &mut paths)?;
        for abs in paths {
            if let Some(rel) = relativize(root, &abs) {
                files.push(SourceFile {
                    ctx: classify("pronghorn", &rel),
                    abs_path: abs,
                });
            }
        }
    }
    files.sort_by(|a, b| a.ctx.path.cmp(&b.ctx.path));
    Ok(files)
}

fn relativize(root: &Path, abs: &Path) -> Option<String> {
    let rel = abs.strip_prefix(root).ok()?;
    Some(
        rel.components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        let lib = classify("core", "crates/core/src/lib.rs");
        assert!(lib.is_crate_root && lib.is_lib_root && !lib.is_test_file);
        // Integration-test files are test scope AND their own crate root.
        let tests = classify("core", "crates/core/tests/props.rs");
        assert!(tests.is_test_file && tests.is_crate_root && !tests.is_lib_root);
        let bench = classify("bench", "crates/bench/benches/ablations.rs");
        assert!(bench.is_test_file && bench.is_crate_root);
        let example = classify("pronghorn", "examples/quickstart.rs");
        assert!(example.is_test_file && example.is_crate_root);
        let root_test = classify("pronghorn", "tests/end_to_end.rs");
        assert!(root_test.is_test_file && root_test.is_crate_root);
        let bin = classify("analysis", "crates/analysis/src/bin/pronglint.rs");
        assert!(bin.is_crate_root && !bin.is_lib_root);
        let module = classify("core", "crates/core/src/pool.rs");
        assert!(!module.is_crate_root && !module.is_test_file);
        // Modules *under* a harness dir are not separate roots.
        let helper = classify("core", "crates/core/tests/common/mod.rs");
        assert!(helper.is_test_file && !helper.is_crate_root);
        // `src/benches/` is ordinary library code, not a harness dir.
        let src_bench = classify("workloads", "crates/workloads/src/benches/java.rs");
        assert!(!src_bench.is_crate_root && !src_bench.is_test_file);
    }

    #[test]
    fn walks_this_workspace() {
        // CARGO_MANIFEST_DIR = crates/analysis; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let files = workspace_sources(&root).unwrap();
        let paths: Vec<&str> = files.iter().map(|f| f.ctx.path.as_str()).collect();
        assert!(paths.contains(&"crates/core/src/pool.rs"));
        assert!(paths.contains(&"src/lib.rs"));
        assert!(paths.contains(&"examples/quickstart.rs"));
        assert!(paths.contains(&"crates/analysis/tests/golden.rs"));
        assert!(!paths.iter().any(|p| p.starts_with("compat/")));
        assert!(!paths.iter().any(|p| p.starts_with("target/")));
        // Sorted and unique.
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(paths, sorted);
    }
}
