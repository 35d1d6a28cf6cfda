//! `pronglint`: workspace-native determinism & invariant static analysis.
//!
//! Pronghorn's headline numbers are reproducible only because every policy
//! decision — EWMA updates, softmax restore sampling, pool eviction — runs
//! under a fixed-seed deterministic simulation. A single `HashMap`
//! iteration or float-reduction-order change silently invalidates every
//! `results/` artifact. This crate is the guard for that contract: a
//! hand-rolled Rust [`lexer`] (no `syn`, no network — in the spirit of the
//! `compat/` stubs), a line/context-aware [`rules`] engine enforcing the
//! D1–D5 invariants of DESIGN.md §10, a workspace call graph for the
//! interprocedural rules, and the human [`report`]. There is one gate:
//! every finding fails the run, and an in-source
//! `// pronglint: allow(<rule>): <why>` marker is the only way to accept
//! one.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p analysis --bin pronglint
//! ```
//!
//! Exit status: 0 when there are no findings, 1 when there are any, 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod walk;
pub mod xrules;

pub use engine::{analyze_units, SourceUnit};
pub use graph::CallGraph;
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse_file, ParsedFile};
pub use rules::{analyze_source, ChainFrame, FileContext, Finding};
pub use walk::{classify, workspace_sources, SourceFile};

use std::io;
use std::path::Path;

/// Analyzes every in-scope source file under `root` through the full v2
/// pipeline (per-file D rules, workspace call graph, interprocedural
/// T1/C1/P1/K1, suppression audit), returning all findings sorted by
/// path and line.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let sources = workspace_sources(root)?;
    let mut units = Vec::with_capacity(sources.len());
    for file in sources {
        units.push(SourceUnit {
            src: std::fs::read_to_string(&file.abs_path)?,
            ctx: file.ctx,
        });
    }
    Ok(analyze_units(&units))
}
