//! Human rendering of a pronglint run.

use crate::rules::Finding;
use std::fmt::Write as _;

/// Renders the report for sorted `findings`: one `file:line: [rule]
/// message` per finding (interprocedural call chains indented below),
/// then a summary line.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        for (i, frame) in f.chain.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {} {} ({}:{})",
                if i == 0 { "chain:" } else { "    ->" },
                frame.func,
                frame.file,
                frame.line
            );
        }
    }
    if findings.is_empty() {
        let _ = writeln!(out, "pronglint: OK");
    } else {
        let _ = writeln!(out, "pronglint: FAILED — {} finding(s)", findings.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ChainFrame;

    #[test]
    fn human_report_names_file_line_rule() {
        let findings = vec![Finding::new(
            "crates/core/src/x.rs".into(),
            4,
            "panic-path",
            "say \"no\" to panics".into(),
        )];
        let text = human(&findings);
        assert!(text.contains("crates/core/src/x.rs:4: [panic-path]"));
        assert!(text.contains("FAILED"));
        assert_eq!(human(&[]), "pronglint: OK\n");
    }

    #[test]
    fn human_report_renders_chains_indented() {
        let mut finding = Finding::new("a.rs".into(), 1, "panic-reach", "m".into());
        finding.chain = vec![
            ChainFrame {
                func: "entry".into(),
                file: "a.rs".into(),
                line: 1,
            },
            ChainFrame {
                func: "leaf".into(),
                file: "b.rs".into(),
                line: 7,
            },
        ];
        let text = human(&[finding]);
        assert!(text.contains("chain: entry (a.rs:1)"));
        assert!(text.contains("-> leaf (b.rs:7)"));
    }
}
