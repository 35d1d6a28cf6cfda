//! The `pronglint` CLI: walk the workspace, evaluate every rule, and
//! report. Any finding fails the run.
//!
//! ```text
//! cargo run -p analysis --bin pronglint -- [--root <path>] [--explain <rule>]
//! ```

#![forbid(unsafe_code)]

use analysis::report;
use analysis::rules;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "pronglint — Pronghorn determinism & invariant linter

USAGE:
    cargo run -p analysis --bin pronglint -- [OPTIONS]

OPTIONS:
    --root <path>           workspace root (default: inferred from this crate)
    --explain <rule>        print the long-form rationale for a rule and exit
    --help                  print this help

To accept a finding, mark it in source: `// pronglint: allow(<rule>): <why>`.

EXIT STATUS:
    0  no findings
    1  findings
    2  usage or I/O error";

struct Options {
    root: Option<PathBuf>,
    explain: Option<String>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: None,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let v = args.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--explain" => {
                let v = args.next().ok_or("--explain requires a rule id")?;
                opts.explain = Some(v);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("pronglint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = opts.explain {
        return match rules::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "pronglint: unknown rule `{rule}`; known rules:\n    {}",
                    rules::ALL_RULES.join("\n    ")
                );
                ExitCode::from(2)
            }
        };
    }
    // Default root: this crate lives at <root>/crates/analysis.
    let root = opts.root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let findings = match analysis::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("pronglint: failed to walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    print!("{}", report::human(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
