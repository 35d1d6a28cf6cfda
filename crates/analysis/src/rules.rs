//! The Pronghorn invariant rules (D1–D5) and the context engine that
//! evaluates them over a lexed file.
//!
//! Every rule guards the determinism contract the evaluation grid depends
//! on (see DESIGN.md §10): fixed-seed runs must replay bit-identically, so
//! nothing order-sensitive, clock-sensitive, or panicky may sit on a
//! sim-visible path. Rules are line/context aware, not purely textual:
//! comments and string literals are opaque (the lexer classifies them),
//! test code is exempt where the rule says so, and per-line suppressions
//! plus the `det-order` marker are honored.
//!
//! | rule id | invariant |
//! |---|---|
//! | `unordered-iter` | no `HashMap`/`HashSet` in sim-visible crates |
//! | `wall-clock` | no `Instant::now`/`SystemTime::now`/`thread_rng` outside bench/experiments |
//! | `panic-path` | no `unwrap()`/`expect()`/`panic!` in policy-crate library code |
//! | `crate-hygiene` | crate roots carry `#![forbid(unsafe_code)]` (+ missing-docs lint for libs) |
//! | `float-accum` | f64 reductions in core/metrics carry the `det-order` marker |
//!
//! Suppression syntax, trailing the offending line or in a comment
//! (possibly multi-line) directly above it:
//!
//! ```text
//! // pronglint: allow(unordered-iter): justification here
//! ```
//!
//! Deterministic-order marker (rule `float-accum` only), anywhere in the
//! statement or on the line above it:
//!
//! ```text
//! // pronglint: det-order — slice iteration, fixed order
//! ```

use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// Crates whose state or RNG draws are visible to the deterministic
/// simulation: any iteration-order dependence here can shift fixed-seed
/// results (rule `unordered-iter`, and the taint sink set of rule
/// `determinism-taint`). `cluster` and `restore` joined in v2 — their
/// locality and paging decisions feed the policy streams just as directly
/// as the original eight.
pub const SIM_VISIBLE_CRATES: &[&str] = &[
    "core",
    "sim",
    "checkpoint",
    "store",
    "kv",
    "jit",
    "platform",
    "metrics",
    "cluster",
    "restore",
];

/// Crates allowed to read wall clocks and OS entropy (rule `wall-clock`):
/// the host-side measurement harnesses, never the simulation itself.
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["bench", "experiments"];

/// Policy crates whose library paths must surface typed errors instead of
/// panicking (rule `panic-path`).
pub const POLICY_CRATES: &[&str] = &["core", "checkpoint"];

/// Entry points outside the policy crates, as `(crate, fn)`, from which no
/// panic may be reachable (rule `panic-reach`): the platform's validated
/// `run` rejects bad input with a typed error, so nothing below it may
/// panic on it.
pub const ENTRY_POINTS: &[(&str, &str)] = &[("platform", "run")];

/// Crates whose f64 reductions must be marked order-deterministic (rule
/// `float-accum`): the policy math and the statistics it feeds.
pub const FLOAT_ORDER_CRATES: &[&str] = &["core", "metrics"];

/// All rule identifiers, in catalog order: the per-file D family
/// (lexical, one file at a time), the interprocedural v2 family
/// (evaluated over the workspace call graph — see [`crate::xrules`]),
/// and the suppression audit.
pub const ALL_RULES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "panic-path",
    "crate-hygiene",
    "float-accum",
    "determinism-taint",
    "byte-conservation",
    "panic-reach",
    "kernel-misuse",
    "unused-suppression",
];

/// The long-form explanation of a rule (the `--explain <rule>` text), or
/// `None` for an unknown rule id. Every id in [`ALL_RULES`] has one —
/// pinned by a test.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "unordered-iter" => {
            "unordered-iter (D1, per-file)\n\
             No `HashMap`/`HashSet` in sim-visible crates.\n\n\
             Pronghorn's headline numbers come from fixed-seed deterministic\n\
             simulation: the same seed must replay the same decision stream\n\
             byte for byte. `std` hash containers randomize iteration order\n\
             per process, so any fold, selection, or tie-break over one can\n\
             differ run to run without failing a single test. Use\n\
             `BTreeMap`/`BTreeSet` (or another ordered container), or — if\n\
             the use is provably order-independent — suppress with\n\
             `// pronglint: allow(unordered-iter): <why>`."
        }
        "wall-clock" => {
            "wall-clock (D2, per-file)\n\
             No `Instant::now`/`SystemTime::now`/`thread_rng`/`from_entropy`\n\
             outside the clock-exempt harness crates (bench, experiments).\n\n\
             Simulated components must take time from `SimTime` and\n\
             randomness from the seeded `RngFactory` streams; a host clock\n\
             or OS entropy read anywhere else leaks nondeterminism into the\n\
             replay. Measurement harnesses that time the *host* are exempt\n\
             by crate."
        }
        "panic-path" => {
            "panic-path (D3, per-file)\n\
             No `unwrap()`/`expect()`/`panic!` in policy-crate library code\n\
             (core, checkpoint).\n\n\
             The policy crates decide checkpoint/restore orchestration; a\n\
             panic there aborts the whole simulated fleet instead of\n\
             degrading one decision. Return typed errors or prove the\n\
             invariant locally; tests are exempt."
        }
        "crate-hygiene" => {
            "crate-hygiene (D4, per-file)\n\
             Every crate root carries `#![forbid(unsafe_code)]`; library\n\
             roots also carry a missing-docs lint.\n\n\
             \"Crate root\" includes every integration-test, bench, and\n\
             example file: each one compiles as its own crate, so a root\n\
             attribute in `src/lib.rs` does not cover them. `forbid` (not\n\
             `deny`) so no downstream `allow` can reopen the hole."
        }
        "float-accum" => {
            "float-accum (D5, per-file)\n\
             f64 reductions in core/metrics carry the\n\
             `// pronglint: det-order` marker.\n\n\
             Float addition is not associative: summing in a different\n\
             order changes the low bits, which compound through EWMA and\n\
             softmax weights into different decisions. The marker is an\n\
             auditable claim that the reduction order is fixed."
        }
        "determinism-taint" => {
            "determinism-taint (T1, interprocedural)\n\
             No call chain from a sim-visible crate may reach a function\n\
             that iterates an unordered container, draws OS entropy, or\n\
             reads a wall clock.\n\n\
             D1/D2 check single files; this rule runs on the workspace call\n\
             graph, so nondeterminism one function boundary away (in a\n\
             helper crate the per-file rules exempt) is still caught. The\n\
             finding is reported at the crossing call site in the\n\
             sim-visible crate and carries the full call chain down to the\n\
             taint source. Clear an unordered-iteration source with a\n\
             `// pronglint: det-order — <why>` marker inside the source\n\
             function if its result is provably order-independent; entropy\n\
             and clock sources need a per-site allow."
        }
        "byte-conservation" => {
            "byte-conservation (C1, workspace)\n\
             Byte-accounting counters (`bytes_transferred`, `remote_bytes`,\n\
             `nominal_bytes_downloaded`, `nominal_bytes_uploaded`,\n\
             `pinned_nominal_bytes`, `replicated_bytes`, the tier's\n\
             `wire_bytes_downloaded`/`wire_bytes_uploaded`/`cache_hit_bytes`\n\
             and the store's `bytes_uploaded`/`bytes_downloaded`/\n\
             `bytes_deduped`) mutate only\n\
             through `checked_`/`saturating_` arithmetic, and every such\n\
             field is pinned by at least one assertion or test.\n\n\
             The Table 5 byte decomposition is summed across millions of\n\
             simulated events; a silent u64 wrap corrupts a headline number\n\
             while every test stays green. Use\n\
             `pronghorn_store::saturating_accumulate`."
        }
        "panic-reach" => {
            "panic-reach (P1, interprocedural)\n\
             No `unwrap`/`expect`/`panic!` reachable from a public policy\n\
             entry point (core, checkpoint), wherever the panic site\n\
             lives.\n\n\
             D3 covers panic sites *inside* the policy crates; this rule\n\
             walks the call graph from policy entry points outward, so a\n\
             panicky helper in store/kv/restore that a policy decision\n\
             path calls is caught too. The finding carries the\n\
             entry-to-panic call chain."
        }
        "kernel-misuse" => {
            "kernel-misuse (K1, per-file over sim-visible crates)\n\
             Kernel events are scheduled safely: (a) no\n\
             `.schedule(<subtraction-derived time>, ..)` — underflow past\n\
             `now` makes the kernel clamp silently and reorder the event\n\
             against same-instant peers; use `saturating_sub`/`max(now)`\n\
             so the clamp is explicit; (b) any `Ord`/`PartialOrd` over\n\
             event time must include the `seq` tie-break the kernel's\n\
             `(at, seq)` FIFO contract requires; (c) no hand-rolled\n\
             `BinaryHeap` future-event lists outside `pronghorn_sim`."
        }
        "unused-suppression" => {
            "unused-suppression (audit, workspace)\n\
             Every `// pronglint: allow(<rule>): <why>` must suppress at\n\
             least one live finding.\n\n\
             A stale allow is a hole a future regression walks through\n\
             unseen — the comment reads like protection while suppressing\n\
             nothing (wrong line, fixed code, or a rule the crate is\n\
             already exempt from). Delete it, or keep a deliberately\n\
             dormant one alive with\n\
             `// pronglint: allow(unused-suppression): <why>`."
        }
        _ => return None,
    })
}

/// One frame of an interprocedural evidence chain: caller to callee,
/// down to the line of the actual hazard.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChainFrame {
    /// Qualified function name (`Type::method` or bare fn).
    pub func: String,
    /// Repo-relative file of the function.
    pub file: String,
    /// 1-based line (the call site, or the hazard itself for the last
    /// frame).
    pub line: u32,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// Interprocedural evidence (empty for per-file rules): the call
    /// chain from the flagged function down to the hazard.
    pub chain: Vec<ChainFrame>,
}

impl Finding {
    /// A finding with no interprocedural chain.
    pub fn new(file: String, line: u32, rule: &'static str, message: String) -> Self {
        Finding {
            file,
            line,
            rule,
            message,
            chain: Vec::new(),
        }
    }
}

/// What kind of file is being analyzed, derived from its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContext {
    /// Crate the file belongs to (`core`, `sim`, …; the workspace facade
    /// is `pronghorn`).
    pub crate_name: String,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Whole file is test/bench scope (`tests/` or `benches/` directory).
    pub is_test_file: bool,
    /// File is a crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
    pub is_crate_root: bool,
    /// Crate root is a library root (`src/lib.rs`), which additionally
    /// requires a missing-docs lint level.
    pub is_lib_root: bool,
}

/// Analyzes one file's source with the per-file D rules only, returning
/// its findings sorted by line. The interprocedural v2 rules need the
/// whole workspace — see [`crate::engine::analyze_units`].
pub fn analyze_source(ctx: &FileContext, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let file = FileAnalysis::new(ctx, src, &tokens);
    let mut findings = file.raw_d_findings();
    findings.retain(|f| !file.is_suppressed(f.rule, f.line));
    findings.sort();
    findings
}

/// One `pronglint: allow(rule)` suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule the comment names.
    pub rule: String,
    /// The code line the suppression covers (its own line for a trailing
    /// comment, the next code line for a comment block above).
    pub target_line: u32,
    /// The line the comment itself sits on (where the unused-suppression
    /// audit reports).
    pub comment_line: u32,
}

/// Pre-computed per-file context shared by all rules.
pub struct FileAnalysis<'a> {
    ctx: &'a FileContext,
    src: &'a str,
    tokens: &'a [Token],
    /// Indices (into `tokens`) of significant tokens: everything except
    /// whitespace and comments.
    sig: Vec<usize>,
    /// Byte ranges of test scope (`#[cfg(test)]` / `#[test]` item bodies).
    test_regions: Vec<(usize, usize)>,
    /// Every `pronglint: allow(rule)` suppression in the file.
    allows: Vec<Allow>,
    /// Lines carrying the `pronglint: det-order` marker.
    det_order_lines: BTreeSet<u32>,
}

impl<'a> FileAnalysis<'a> {
    /// Builds the per-file context: significant tokens, test regions,
    /// suppressions, and det-order markers.
    pub fn new(ctx: &'a FileContext, src: &'a str, tokens: &'a [Token]) -> Self {
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        // Lines holding code, for resolving which line a suppression
        // comment targets: a trailing comment covers its own line, a
        // comment-only line (or block of them) covers the next code line.
        let code_lines: BTreeSet<u32> = sig.iter().map(|&i| tokens[i].line).collect();
        let target_of = |line: u32| -> u32 {
            if code_lines.contains(&line) {
                line
            } else {
                code_lines.range(line..).next().copied().unwrap_or(line)
            }
        };
        let mut allows = Vec::new();
        let mut det_order_lines = BTreeSet::new();
        for t in tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(src);
            // Doc comments *describe* the directive syntax (rustdoc, rule
            // explanations); only regular comments carry live directives.
            if text.starts_with("///")
                || text.starts_with("//!")
                || text.starts_with("/**")
                || text.starts_with("/*!")
            {
                continue;
            }
            let Some(rest) = text.split("pronglint:").nth(1) else {
                continue;
            };
            let rest = rest.trim_start();
            if rest.starts_with("det-order") {
                det_order_lines.insert(t.line);
            } else if let Some(inner) = rest.strip_prefix("allow(") {
                if let Some(end) = inner.find(')') {
                    for rule in inner[..end].split(',') {
                        allows.push(Allow {
                            rule: rule.trim().to_string(),
                            target_line: target_of(t.line),
                            comment_line: t.line,
                        });
                    }
                }
            }
        }
        let mut analysis = FileAnalysis {
            ctx,
            src,
            tokens,
            sig,
            test_regions: Vec::new(),
            allows,
            det_order_lines,
        };
        analysis.test_regions = analysis.find_test_regions();
        analysis
    }

    fn tok(&self, sig_idx: usize) -> &Token {
        &self.tokens[self.sig[sig_idx]]
    }

    fn text(&self, sig_idx: usize) -> &str {
        self.tok(sig_idx).text(self.src)
    }

    fn is_punct(&self, sig_idx: usize, ch: &str) -> bool {
        let t = self.tok(sig_idx);
        t.kind == TokenKind::Punct && t.text(self.src) == ch
    }

    fn is_ident(&self, sig_idx: usize, name: &str) -> bool {
        let t = self.tok(sig_idx);
        t.kind == TokenKind::Ident && t.text(self.src) == name
    }

    /// Scans for `#[cfg(test)]` / `#[test]` attributes and records the byte
    /// range of the brace-block of the item that follows (skipping any
    /// further attributes in between). An item ended by `;` before any `{`
    /// yields no region.
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let n = self.sig.len();
        let mut i = 0;
        while i < n {
            if !(self.is_punct(i, "#") && i + 1 < n && self.is_punct(i + 1, "[")) {
                i += 1;
                continue;
            }
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < n && depth > 0 {
                if self.is_punct(j, "[") {
                    depth += 1;
                } else if self.is_punct(j, "]") {
                    depth -= 1;
                } else if self.tok(j).kind == TokenKind::Ident {
                    attr_idents.push(self.text(j));
                }
                j += 1;
            }
            let is_test_attr = match attr_idents.first() {
                Some(&"test") => true,
                Some(&"cfg") => attr_idents.contains(&"test"),
                _ => false,
            };
            if !is_test_attr {
                i = j;
                continue;
            }
            // Find the item body: the next `{` at attribute level, skipping
            // further `#[…]` attributes; `;` first means no body.
            let mut k = j;
            while k < n {
                if self.is_punct(k, "#") && k + 1 < n && self.is_punct(k + 1, "[") {
                    let mut d = 1usize;
                    k += 2;
                    while k < n && d > 0 {
                        if self.is_punct(k, "[") {
                            d += 1;
                        } else if self.is_punct(k, "]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                    continue;
                }
                if self.is_punct(k, ";") {
                    break;
                }
                if self.is_punct(k, "{") {
                    let start = self.tok(k).start;
                    let mut d = 1usize;
                    let mut m = k + 1;
                    while m < n && d > 0 {
                        if self.is_punct(m, "{") {
                            d += 1;
                        } else if self.is_punct(m, "}") {
                            d -= 1;
                        }
                        m += 1;
                    }
                    let end = if m > 0 && m <= n {
                        self.tok(m - 1).end
                    } else {
                        self.src.len()
                    };
                    regions.push((start, end));
                    break;
                }
                k += 1;
            }
            i = j;
        }
        regions
    }

    /// Whether the byte offset falls in test scope (test file, or a
    /// `#[cfg(test)]` / `#[test]` item body).
    pub fn in_test_scope(&self, byte: usize) -> bool {
        self.ctx.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| byte >= s && byte < e)
    }

    /// Whether an `allow(rule)` comment covers `line`. Targets were
    /// resolved at parse time: a trailing comment covers its own line, a
    /// comment block covers the code line that follows.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.target_line == line)
    }

    /// The file's suppression comments.
    pub fn allows(&self) -> &[Allow] {
        &self.allows
    }

    /// The file's `det-order` marker lines.
    pub fn det_order_lines(&self) -> &BTreeSet<u32> {
        &self.det_order_lines
    }

    /// The file's test-scope byte ranges.
    pub fn test_regions(&self) -> &[(usize, usize)] {
        &self.test_regions
    }

    /// Runs every per-file D rule, returning findings **before**
    /// suppression (the engine applies suppressions globally so it can
    /// audit unused ones).
    pub fn raw_d_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        self.rule_unordered_iter(&mut findings);
        self.rule_wall_clock(&mut findings);
        self.rule_panic_path(&mut findings);
        self.rule_crate_hygiene(&mut findings);
        self.rule_float_accum(&mut findings);
        findings.sort();
        findings
    }

    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding::new(self.ctx.path.clone(), line, rule, message)
    }

    /// D1: unordered containers in sim-visible crates.
    fn rule_unordered_iter(&self, out: &mut Vec<Finding>) {
        if !SIM_VISIBLE_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        for idx in 0..self.sig.len() {
            let t = self.tok(idx);
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text(self.src);
            if (name == "HashMap" || name == "HashSet") && !self.in_test_scope(t.start) {
                out.push(self.finding(
                    "unordered-iter",
                    t.line,
                    format!(
                        "`{name}` in sim-visible crate `{}`: iteration order is \
                         nondeterministic and can shift fixed-seed results; use \
                         `BTreeMap`/`BTreeSet` (or another ordered container), or \
                         annotate `// pronglint: allow(unordered-iter): <why>`",
                        self.ctx.crate_name
                    ),
                ));
            }
        }
    }

    /// D2: wall clocks and OS entropy outside the measurement harnesses.
    fn rule_wall_clock(&self, out: &mut Vec<Finding>) {
        if CLOCK_EXEMPT_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        for idx in 0..self.sig.len() {
            let t = self.tok(idx);
            if t.kind != TokenKind::Ident || self.in_test_scope(t.start) {
                continue;
            }
            let name = t.text(self.src);
            let call = match name {
                "Instant" | "SystemTime" => {
                    // Only flag the `::now` call, not the import.
                    idx + 3 < self.sig.len()
                        && self.is_punct(idx + 1, ":")
                        && self.is_punct(idx + 2, ":")
                        && self.is_ident(idx + 3, "now")
                }
                "thread_rng" => true,
                _ => false,
            };
            if call {
                out.push(self.finding(
                    "wall-clock",
                    t.line,
                    format!(
                        "`{name}` reads the host clock/entropy in crate `{}`: \
                         sim-visible time must come from `pronghorn_sim` virtual \
                         time and seeded RNGs; move measurement into bench/\
                         experiments or annotate `// pronglint: allow(wall-clock): <why>`",
                        self.ctx.crate_name
                    ),
                ));
            }
        }
    }

    /// D3: panicky library code in the policy crates.
    fn rule_panic_path(&self, out: &mut Vec<Finding>) {
        if !POLICY_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        for idx in 0..self.sig.len() {
            let t = self.tok(idx);
            if t.kind != TokenKind::Ident || self.in_test_scope(t.start) {
                continue;
            }
            let name = t.text(self.src);
            let hit = match name {
                // `.unwrap()` / `.expect(` — method position only, so
                // `unwrap_or` and friends (distinct idents) never match.
                "unwrap" | "expect" => {
                    idx > 0
                        && self.is_punct(idx - 1, ".")
                        && idx + 1 < self.sig.len()
                        && self.is_punct(idx + 1, "(")
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    idx + 1 < self.sig.len() && self.is_punct(idx + 1, "!")
                }
                _ => false,
            };
            if hit {
                out.push(self.finding(
                    "panic-path",
                    t.line,
                    format!(
                        "`{name}` on a library path of policy crate `{}`: surface a \
                         typed error (see `pronghorn_core::ConfigError` for the \
                         in-tree pattern) or annotate \
                         `// pronglint: allow(panic-path): <why>`",
                        self.ctx.crate_name
                    ),
                ));
            }
        }
    }

    /// D4: crate-root hygiene attributes.
    fn rule_crate_hygiene(&self, out: &mut Vec<Finding>) {
        if !self.ctx.is_crate_root {
            return;
        }
        let mut has_forbid_unsafe = false;
        let mut has_missing_docs = false;
        let n = self.sig.len();
        for i in 0..n {
            // Inner attribute: `# ! [ level ( lint ) ]`.
            if !(self.is_punct(i, "#")
                && i + 2 < n
                && self.is_punct(i + 1, "!")
                && self.is_punct(i + 2, "["))
            {
                continue;
            }
            let mut idents: Vec<&str> = Vec::new();
            let mut j = i + 3;
            let mut depth = 1usize;
            while j < n && depth > 0 {
                if self.is_punct(j, "[") {
                    depth += 1;
                } else if self.is_punct(j, "]") {
                    depth -= 1;
                } else if self.tok(j).kind == TokenKind::Ident {
                    idents.push(self.text(j));
                }
                j += 1;
            }
            if idents.first() == Some(&"forbid") && idents.contains(&"unsafe_code") {
                has_forbid_unsafe = true;
            }
            if matches!(idents.first(), Some(&"deny") | Some(&"warn"))
                && idents.contains(&"missing_docs")
            {
                has_missing_docs = true;
            }
        }
        if !has_forbid_unsafe {
            out.push(self.finding(
                "crate-hygiene",
                1,
                format!(
                    "crate root `{}` lacks `#![forbid(unsafe_code)]`",
                    self.ctx.path
                ),
            ));
        }
        if self.ctx.is_lib_root && !has_missing_docs {
            out.push(self.finding(
                "crate-hygiene",
                1,
                format!(
                    "library root `{}` lacks `#![deny(missing_docs)]` or \
                     `#![warn(missing_docs)]`",
                    self.ctx.path
                ),
            ));
        }
    }

    /// D5: f64 reductions without the deterministic-order marker.
    fn rule_float_accum(&self, out: &mut Vec<Finding>) {
        if !FLOAT_ORDER_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        let n = self.sig.len();
        for idx in 0..n {
            let t = self.tok(idx);
            if t.kind != TokenKind::Ident || self.in_test_scope(t.start) {
                continue;
            }
            let name = t.text(self.src);
            if !matches!(name, "sum" | "product" | "fold") {
                continue;
            }
            // Method position: preceded by `.`, followed by `(` or `::`.
            if !(idx > 0 && self.is_punct(idx - 1, ".")) {
                continue;
            }
            let called = idx + 1 < n
                && (self.is_punct(idx + 1, "(")
                    || (self.is_punct(idx + 1, ":") && self.is_punct(idx + 2, ":")));
            if !called {
                continue;
            }
            // Statement span: back to the previous `;`/`{`/`}`, forward to
            // the next `;` (or `}`), inclusive.
            let mut lo = idx;
            while lo > 0 {
                let p = lo - 1;
                if self.is_punct(p, ";") || self.is_punct(p, "{") || self.is_punct(p, "}") {
                    break;
                }
                lo = p;
            }
            let mut hi = idx;
            while hi + 1 < n && !(self.is_punct(hi, ";") || self.is_punct(hi, "}")) {
                hi += 1;
            }
            // `f64` evidence: the type ident, or a float literal with an
            // `f64` suffix (`0.0_f64` lexes as one Number token).
            let about_f64 = (lo..=hi).any(|k| {
                self.is_ident(k, "f64")
                    || (self.tok(k).kind == TokenKind::Number && self.text(k).ends_with("f64"))
            });
            if !about_f64 {
                continue;
            }
            let stmt_first_line = self.tok(lo).line;
            let marked = self
                .det_order_lines
                .iter()
                .any(|&m| m + 1 >= stmt_first_line && m <= t.line);
            if !marked {
                out.push(self.finding(
                    "float-accum",
                    t.line,
                    format!(
                        "f64 `{name}` reduction in crate `{}` without the \
                         deterministic-order marker: float addition is not \
                         associative, so the reduction order is part of the \
                         determinism contract; verify the iteration order is \
                         fixed and annotate `// pronglint: det-order — <why>`",
                        self.ctx.crate_name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            path: format!("crates/{crate_name}/src/x.rs"),
            is_test_file: false,
            is_crate_root: false,
            is_lib_root: false,
        }
    }

    #[test]
    fn hashmap_flagged_only_in_sim_visible_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(analyze_source(&ctx("store"), src).len(), 1);
        assert_eq!(analyze_source(&ctx("workloads"), src).len(), 0);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "// HashMap in prose\nlet s = \"HashMap\";\n";
        assert!(analyze_source(&ctx("store"), src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { x.unwrap(); }\n}\n";
        assert!(analyze_source(&ctx("core"), src).is_empty());
    }

    #[test]
    fn suppression_on_line_or_line_above() {
        let same = "use std::collections::HashMap; // pronglint: allow(unordered-iter): test\n";
        let above = "// pronglint: allow(unordered-iter): keyed lookups only\nuse std::collections::HashMap;\n";
        let wrong_rule = "// pronglint: allow(wall-clock): nope\nuse std::collections::HashMap;\n";
        assert!(analyze_source(&ctx("store"), same).is_empty());
        assert!(analyze_source(&ctx("store"), above).is_empty());
        assert_eq!(analyze_source(&ctx("store"), wrong_rule).len(), 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        assert!(analyze_source(&ctx("core"), src).is_empty());
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(analyze_source(&ctx("core"), bad).len(), 1);
    }

    #[test]
    fn instant_import_ok_now_call_flagged() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let findings = analyze_source(&ctx("checkpoint"), src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert!(analyze_source(&ctx("experiments"), src).is_empty());
    }

    #[test]
    fn float_sum_needs_marker() {
        let bad = "fn f(xs: &[f64]) -> f64 { let t: f64 = xs.iter().sum(); t }\n";
        assert_eq!(analyze_source(&ctx("core"), bad).len(), 1);
        let good =
            "fn f(xs: &[f64]) -> f64 {\n    // pronglint: det-order — slice order\n    let t: f64 = xs.iter().sum();\n    t\n}\n";
        assert!(analyze_source(&ctx("core"), good).is_empty());
        // usize sums are not float reductions.
        let usize_sum = "fn f(xs: &[usize]) -> usize { xs.iter().sum::<usize>() }\n";
        assert!(analyze_source(&ctx("metrics"), usize_sum).is_empty());
    }

    #[test]
    fn crate_root_hygiene() {
        let root = FileContext {
            crate_name: "kv".into(),
            path: "crates/kv/src/lib.rs".into(),
            is_test_file: false,
            is_crate_root: true,
            is_lib_root: true,
        };
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        assert!(analyze_source(&root, good).is_empty());
        let missing = "#![forbid(unsafe_code)]\n";
        let findings = analyze_source(&root, missing);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("missing_docs"));
        let neither = "pub fn f() {}\n";
        assert_eq!(analyze_source(&root, neither).len(), 2);
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in ALL_RULES {
            let text = explain(rule).unwrap_or_else(|| panic!("no --explain text for {rule}"));
            assert!(
                text.starts_with(rule),
                "explanation for {rule} must lead with its id"
            );
        }
        assert!(explain("no-such-rule").is_none());
    }
}
