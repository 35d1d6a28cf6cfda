//! The interprocedural v2 rule families, evaluated over the workspace
//! call graph (see DESIGN.md §15):
//!
//! | rule id | invariant |
//! |---|---|
//! | `determinism-taint` (T1) | no unordered-iteration / entropy / wall-clock taint may flow into a sim-visible crate through a call chain |
//! | `byte-conservation` (C1) | byte-accounting counters mutate only via `checked_`/`saturating_` arithmetic, and every accounting field is pinned by at least one assertion or test |
//! | `panic-reach` (P1) | no `unwrap`/`expect`/`panic!` reachable from a policy entry point, wherever the panic site lives |
//! | `kernel-misuse` (K1) | kernel events are never scheduled with subtraction-derived (possibly past) timestamps, and hand-rolled event orderings must carry the `(at, seq)` tie-break |
//!
//! T1 and P1 are what the per-file D rules structurally cannot see: a
//! hazard *in one function* reaching a contract surface *in another*,
//! possibly across crates. Their findings carry the full call chain as
//! [`ChainFrame`] evidence.
//!
//! Suppression works exactly like the D rules (`pronglint:
//! allow(<rule>)` trailing or above the reported line). A
//! `pronglint: det-order` marker anywhere inside a function body clears
//! that function as an *unordered-iteration* taint source (the author
//! asserts the fold is order-independent or the order is fixed);
//! entropy and wall-clock sources are only clearable by `allow`.

use crate::graph::{CallGraph, NodeId};
use crate::lexer::TokenKind;
use crate::parser::ParsedFile;
use crate::rules::{
    ChainFrame, FileAnalysis, FileContext, Finding, POLICY_CRATES, SIM_VISIBLE_CRATES,
};
use std::collections::{BTreeMap, BTreeSet};

/// The byte-accounting fields whose conservation the C1 rule enforces:
/// the `restore_bytes == nominal + remote` decomposition (DESIGN.md §14)
/// and the Table 5 transfer pricing are computed from exactly these
/// counters, so a silent wrap in any of them corrupts a headline number.
pub const BYTE_ACCOUNTING_FIELDS: &[&str] = &[
    "bytes_transferred",
    "remote_bytes",
    "nominal_bytes_downloaded",
    "nominal_bytes_uploaded",
    "pinned_nominal_bytes",
    "replicated_bytes",
    "wire_bytes_downloaded",
    "wire_bytes_uploaded",
    "cache_hit_bytes",
    "bytes_uploaded",
    "bytes_downloaded",
    "bytes_deduped",
];

/// What made a function a determinism-taint source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaintKind {
    UnorderedIter,
    Entropy,
    WallClock,
}

impl TaintKind {
    fn describe(self) -> &'static str {
        match self {
            TaintKind::UnorderedIter => "iterates an unordered container",
            TaintKind::Entropy => "draws OS entropy",
            TaintKind::WallClock => "reads the wall clock",
        }
    }
}

/// One analyzed file, as the engine hands it to the interprocedural
/// rules.
pub struct XFile<'a> {
    /// File context.
    pub ctx: &'a FileContext,
    /// Source text.
    pub src: &'a str,
    /// Item parse.
    pub parsed: &'a ParsedFile,
    /// Per-file lexical analysis (test regions, markers, suppressions).
    pub fa: &'a FileAnalysis<'a>,
}

impl<'a> XFile<'a> {
    fn tok(&self, sig_idx: usize) -> &crate::lexer::Token {
        &self.parsed.tokens[self.parsed.sig[sig_idx]]
    }

    fn text(&self, sig_idx: usize) -> &str {
        self.tok(sig_idx).text(self.src)
    }

    fn is_punct(&self, sig_idx: usize, ch: &str) -> bool {
        sig_idx < self.parsed.sig.len()
            && self.tok(sig_idx).kind == TokenKind::Punct
            && self.text(sig_idx) == ch
    }

    fn is_ident_kind(&self, sig_idx: usize) -> bool {
        sig_idx < self.parsed.sig.len() && self.tok(sig_idx).kind == TokenKind::Ident
    }
}

/// Iteration-method names that, combined with a `HashMap`/`HashSet`
/// mention in the same body, mark a function as order-dependent.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Scans a fn body (sig-index range) for direct taint sources; returns
/// `(kind, evidence_line)` for the strongest hit, or `None`.
fn direct_taint(file: &XFile<'_>, lo: usize, hi: usize) -> Option<(TaintKind, u32)> {
    let hi = hi.min(file.parsed.sig.len());
    let mut hash_container = false;
    let mut iter_line = None;
    for i in lo..hi {
        if !file.is_ident_kind(i) {
            continue;
        }
        let name = file.text(i);
        match name {
            "thread_rng" | "OsRng" | "from_entropy" => {
                return Some((TaintKind::Entropy, file.tok(i).line));
            }
            "Instant" | "SystemTime" => {
                if file.is_punct(i + 1, ":")
                    && file.is_punct(i + 2, ":")
                    && i + 3 < hi
                    && file.is_ident_kind(i + 3)
                    && file.text(i + 3) == "now"
                {
                    return Some((TaintKind::WallClock, file.tok(i).line));
                }
            }
            "HashMap" | "HashSet" => hash_container = true,
            _ => {
                if ITER_METHODS.contains(&name)
                    && i > lo
                    && file.is_punct(i - 1, ".")
                    && file.is_punct(i + 1, "(")
                    && iter_line.is_none()
                {
                    iter_line = Some(file.tok(i).line);
                }
            }
        }
    }
    match (hash_container, iter_line) {
        (true, Some(line)) => Some((TaintKind::UnorderedIter, line)),
        _ => None,
    }
}

/// Whether a det-order marker sits inside the fn's line range (decl line
/// or anywhere in the body), clearing it as an unordered-iter source.
fn det_order_clears(file: &XFile<'_>, def_idx: usize) -> bool {
    let def = &file.parsed.fns[def_idx];
    let (lo, hi) = match def.body_sig {
        Some(r) => r,
        None => return false,
    };
    let hi = hi.min(file.parsed.sig.len());
    if lo >= hi {
        return false;
    }
    let first = def.line.saturating_sub(1); // marker directly above the fn
    let last = file.tok(hi - 1).line;
    file.fa
        .det_order_lines()
        .iter()
        .any(|&m| m >= first && m <= last)
}

/// T1 — determinism taint crossing into sim-visible crates.
pub fn determinism_taint(files: &[XFile<'_>], graph: &CallGraph) -> Vec<Finding> {
    // 1. Direct sources, with det-order clearing for unordered-iter.
    let mut source_info: BTreeMap<NodeId, (TaintKind, u32)> = BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test_scope {
            continue;
        }
        let file = &files[node.file_idx];
        let def = &file.parsed.fns[node.fn_idx];
        let Some((lo, hi)) = def.body_sig else {
            continue;
        };
        let Some((kind, line)) = direct_taint(file, lo, hi) else {
            continue;
        };
        if kind == TaintKind::UnorderedIter && det_order_clears(file, node.fn_idx) {
            continue;
        }
        source_info.insert(id, (kind, line));
    }
    let sources: Vec<NodeId> = source_info.keys().copied().collect();
    if sources.is_empty() {
        return Vec::new();
    }
    // 2. Everything that reaches a source carries taint.
    let carriers = graph.reaching(&sources);
    let source_set: BTreeSet<NodeId> = sources.iter().copied().collect();
    // 3. Report each crossing edge: sim-visible caller -> tainted callee
    //    outside the sim-visible set.
    let mut out = Vec::new();
    let mut reported: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for (f_id, f_node) in graph.nodes.iter().enumerate() {
        if f_node.in_test_scope || !SIM_VISIBLE_CRATES.contains(&f_node.crate_name.as_str()) {
            continue;
        }
        for edge in &graph.calls[f_id] {
            let g_id = edge.to;
            let g_node = &graph.nodes[g_id];
            if g_node.in_test_scope
                || SIM_VISIBLE_CRATES.contains(&g_node.crate_name.as_str())
                || !carriers.contains(&g_id)
                || !reported.insert((f_id, g_id))
            {
                continue;
            }
            let Some(path) = graph.chain_to(g_id, &source_set) else {
                continue;
            };
            let src_id = *path.last().expect("chain_to returns non-empty paths");
            let (kind, src_line) = source_info[&src_id];
            let mut chain = vec![ChainFrame {
                func: f_node.qual_name.clone(),
                file: f_node.file.clone(),
                line: edge.line,
            }];
            for (i, &nid) in path.iter().enumerate() {
                let n = &graph.nodes[nid];
                chain.push(ChainFrame {
                    func: n.qual_name.clone(),
                    file: n.file.clone(),
                    line: if i + 1 == path.len() {
                        src_line
                    } else {
                        n.line
                    },
                });
            }
            let src_node = &graph.nodes[src_id];
            out.push(Finding {
                file: f_node.file.clone(),
                line: edge.line,
                rule: "determinism-taint",
                message: format!(
                    "`{}` in sim-visible crate `{}` calls `{}`, which (transitively) \
                     reaches `{}` ({} at {}:{}): nondeterminism a function boundary \
                     away still shifts fixed-seed results; fix the source, mark it \
                     `// pronglint: det-order — <why>` if the order is provably \
                     fixed, or annotate `// pronglint: allow(determinism-taint): <why>`",
                    f_node.qual_name,
                    f_node.crate_name,
                    g_node.qual_name,
                    src_node.qual_name,
                    kind.describe(),
                    src_node.file,
                    src_line,
                ),
                chain,
            });
        }
    }
    out
}

/// C1 — byte-counter mutations must be overflow-safe, and every
/// accounting field must be pinned by an assertion or test somewhere in
/// the workspace.
pub fn byte_conservation(files: &[XFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Workspace-wide evidence that a field is covered by an invariant:
    // the name appears in test scope, or on a line that also asserts.
    let mut covered: BTreeSet<&str> = BTreeSet::new();
    // First declaration site per field: (file order, line, path).
    let mut decls: BTreeMap<&str, (usize, u32, String)> = BTreeMap::new();
    for (file_order, file) in files.iter().enumerate() {
        let n = file.parsed.sig.len();
        // Lines in this file that carry an assert-family macro.
        let assert_lines: BTreeSet<u32> = (0..n)
            .filter(|&i| {
                file.is_ident_kind(i)
                    && (file.text(i).starts_with("assert")
                        || file.text(i).starts_with("debug_assert"))
            })
            .map(|i| file.tok(i).line)
            .collect();
        for i in 0..n {
            if !file.is_ident_kind(i) {
                continue;
            }
            let name = file.text(i);
            let Some(&field) = BYTE_ACCOUNTING_FIELDS.iter().find(|&&f| f == name) else {
                continue;
            };
            let t = file.tok(i);
            let in_test = file.fa.in_test_scope(t.start);
            if in_test || assert_lines.contains(&t.line) {
                covered.insert(field);
            }
            if in_test {
                continue;
            }
            // Declaration site: `field: u64`.
            if file.is_punct(i + 1, ":")
                && !file.is_punct(i + 2, ":")
                && i + 2 < n
                && file.is_ident_kind(i + 2)
                && matches!(file.text(i + 2), "u64" | "usize")
            {
                decls
                    .entry(field)
                    .or_insert((file_order, t.line, file.ctx.path.clone()));
            }
            // Compound mutation: `field += …` / `field -= …`.
            if (file.is_punct(i + 1, "+") || file.is_punct(i + 1, "-")) && file.is_punct(i + 2, "=")
            {
                let op = if file.is_punct(i + 1, "+") {
                    "+="
                } else {
                    "-="
                };
                out.push(Finding::new(
                    file.ctx.path.clone(),
                    t.line,
                    "byte-conservation",
                    format!(
                        "`{field} {op} …` mutates a byte-accounting counter with \
                         unchecked arithmetic: a silent wrap corrupts the Table 5 \
                         byte decomposition; use `{field} = {field}.saturating_add(…)` \
                         (or `checked_add` with a typed error), or annotate \
                         `// pronglint: allow(byte-conservation): <why>`"
                    ),
                ));
                continue;
            }
            // Plain assignment with bare arithmetic on the RHS:
            // `field = <expr with + or - and no checked_/saturating_>`.
            if file.is_punct(i + 1, "=")
                && !file.is_punct(i + 2, "=")
                && !(i > 0
                    && (file.is_punct(i - 1, "=")
                        || file.is_punct(i - 1, "!")
                        || file.is_punct(i - 1, "<")
                        || file.is_punct(i - 1, ">")))
            {
                let mut j = i + 2;
                let mut bare_arith = false;
                let mut guarded = false;
                while j < n && !file.is_punct(j, ";") && !file.is_punct(j, "}") {
                    if file.is_punct(j, "+") || file.is_punct(j, "-") {
                        // `->` in a closure/return type is not arithmetic.
                        if !(file.is_punct(j, "-") && file.is_punct(j + 1, ">")) {
                            bare_arith = true;
                        }
                    }
                    if file.is_ident_kind(j) {
                        let t2 = file.text(j);
                        if t2.starts_with("checked_") || t2.starts_with("saturating_") {
                            guarded = true;
                        }
                    }
                    j += 1;
                }
                if bare_arith && !guarded {
                    out.push(Finding::new(
                        file.ctx.path.clone(),
                        t.line,
                        "byte-conservation",
                        format!(
                            "`{field} = …` assigns a byte-accounting counter from bare \
                             `+`/`-` arithmetic: use `saturating_add`/`checked_add` so \
                             an overflow cannot silently wrap the Table 5 accounting, \
                             or annotate `// pronglint: allow(byte-conservation): <why>`"
                        ),
                    ));
                }
            }
        }
    }
    // Coverage: every declared accounting field must be pinned somewhere.
    for (field, (_, line, path)) in &decls {
        if !covered.contains(field) {
            out.push(Finding::new(
                path.clone(),
                *line,
                "byte-conservation",
                format!(
                    "accounting field `{field}` is not referenced by any invariant \
                     assertion or test in the workspace: add a conservation check \
                     (e.g. to a proptest or an integration test) so regressions in \
                     the byte decomposition are caught"
                ),
            ));
        }
    }
    out
}

/// P1 — panic sites reachable from policy entry points, wherever they
/// live.
pub fn panic_reach(files: &[XFile<'_>], graph: &CallGraph) -> Vec<Finding> {
    let entries: Vec<NodeId> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.is_pub && !n.in_test_scope && POLICY_CRATES.contains(&n.crate_name.as_str())
        })
        .map(|(id, _)| id)
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let reach = graph.reachable_from(&entries);
    let entry_set: BTreeSet<NodeId> = entries.iter().copied().collect();
    let mut out = Vec::new();
    for &h_id in &reach {
        let h = &graph.nodes[h_id];
        if h.in_test_scope
            || POLICY_CRATES.contains(&h.crate_name.as_str()) // D3's beat
            || !SIM_VISIBLE_CRATES.contains(&h.crate_name.as_str())
        {
            continue;
        }
        let file = &files[h.file_idx];
        let def = &file.parsed.fns[h.fn_idx];
        let Some((lo, hi)) = def.body_sig else {
            continue;
        };
        let hi = hi.min(file.parsed.sig.len());
        for i in lo..hi {
            if !file.is_ident_kind(i) {
                continue;
            }
            let name = file.text(i);
            let hit = match name {
                "unwrap" | "expect" => {
                    i > lo && file.is_punct(i - 1, ".") && file.is_punct(i + 1, "(")
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => file.is_punct(i + 1, "!"),
                _ => false,
            };
            if !hit || file.fa.in_test_scope(file.tok(i).start) {
                continue;
            }
            let line = file.tok(i).line;
            // Shortest chain from any entry point down to this function.
            let chain_ids = graph
                .chain_between(&entry_set, h_id)
                .unwrap_or_else(|| vec![h_id]);
            let mut chain: Vec<ChainFrame> = chain_ids
                .iter()
                .map(|&nid| {
                    let n = &graph.nodes[nid];
                    ChainFrame {
                        func: n.qual_name.clone(),
                        file: n.file.clone(),
                        line: n.line,
                    }
                })
                .collect();
            if let Some(last) = chain.last_mut() {
                last.line = line;
            }
            let entry = &graph.nodes[chain_ids[0]];
            out.push(Finding {
                file: h.file.clone(),
                line,
                rule: "panic-reach",
                message: format!(
                    "`{name}` in `{}` is reachable from policy entry point \
                     `{}::{}` ({} call{}): a panic here aborts the policy decision \
                     path; surface a typed error, prove the invariant locally, or \
                     annotate `// pronglint: allow(panic-reach): <why>`",
                    h.qual_name,
                    entry.crate_name,
                    entry.qual_name,
                    chain_ids.len() - 1,
                    if chain_ids.len() == 2 { "" } else { "s" },
                ),
                chain,
            });
        }
    }
    out
}

/// K1 — kernel-API misuse: subtraction-derived schedule timestamps, and
/// hand-rolled event orderings missing the `(at, seq)` tie-break.
pub fn kernel_misuse(files: &[XFile<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !SIM_VISIBLE_CRATES.contains(&file.ctx.crate_name.as_str()) {
            continue;
        }
        let n = file.parsed.sig.len();
        let is_sim_crate = file.ctx.crate_name == "sim";
        for i in 0..n {
            if !file.is_ident_kind(i) || file.fa.in_test_scope(file.tok(i).start) {
                continue;
            }
            let name = file.text(i);
            // K1a: `.schedule(<expr with '-'>, …)` — a subtraction-derived
            // timestamp can land in the past, where the kernel silently
            // clamps to `now` and reorders the event against its peers.
            if name == "schedule" && i > 0 && file.is_punct(i - 1, ".") && file.is_punct(i + 1, "(")
            {
                let mut j = i + 2;
                let mut depth = 1usize;
                let mut minus = false;
                let mut guarded = false;
                while j < n && depth > 0 {
                    if file.is_punct(j, "(") {
                        depth += 1;
                    } else if file.is_punct(j, ")") {
                        depth -= 1;
                    } else if depth == 1 && file.is_punct(j, ",") {
                        break; // first argument only
                    } else if file.is_punct(j, "-") && !file.is_punct(j + 1, ">") {
                        minus = true;
                    } else if file.is_ident_kind(j) {
                        let t2 = file.text(j);
                        if t2.starts_with("saturating_")
                            || t2.starts_with("checked_")
                            || t2 == "max"
                        {
                            guarded = true;
                        }
                    }
                    j += 1;
                }
                if minus && !guarded {
                    out.push(Finding::new(
                        file.ctx.path.clone(),
                        file.tok(i).line,
                        "kernel-misuse",
                        "`.schedule(…)` with a subtraction-derived timestamp: if the \
                         expression underflows past `now`, the kernel clamps it and \
                         the event silently reorders against same-instant peers; use \
                         `saturating_sub`/`max(now)` so the clamp is explicit, or \
                         annotate `// pronglint: allow(kernel-misuse): <why>`"
                            .to_string(),
                    ));
                }
            }
            // K1b: `impl Ord`/`impl PartialOrd` over event-like state
            // (mentions `at`/`SimTime`) without the `seq` tie-break.
            if name == "impl" {
                let mut j = i + 1;
                let mut is_ord = false;
                while j < n && !file.is_punct(j, "{") && !file.is_punct(j, ";") {
                    if file.is_ident_kind(j) && matches!(file.text(j), "Ord" | "PartialOrd") {
                        is_ord = true;
                    }
                    j += 1;
                }
                if is_ord && j < n && file.is_punct(j, "{") {
                    let mut depth = 0usize;
                    let mut k = j;
                    let (mut has_time, mut has_seq) = (false, false);
                    while k < n {
                        if file.is_punct(k, "{") {
                            depth += 1;
                        } else if file.is_punct(k, "}") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if file.is_ident_kind(k) {
                            match file.text(k) {
                                "at" | "SimTime" => has_time = true,
                                "seq" => has_seq = true,
                                _ => {}
                            }
                        }
                        k += 1;
                    }
                    if has_time && !has_seq {
                        out.push(Finding::new(
                            file.ctx.path.clone(),
                            file.tok(i).line,
                            "kernel-misuse",
                            "`Ord`/`PartialOrd` over event time without a `seq` \
                             tie-break: same-instant events would compare equal and \
                             pop in container order, breaking the kernel's \
                             `(at, seq)` determinism contract; compare \
                             `(at, seq)` tuples, or annotate \
                             `// pronglint: allow(kernel-misuse): <why>`"
                                .to_string(),
                        ));
                    }
                }
            }
            // K1c: a hand-rolled `BinaryHeap` future-event list outside
            // the sim crate (enum-variant references `Kind::BinaryHeap`
            // are path-prefixed and skipped).
            if name == "BinaryHeap"
                && !is_sim_crate
                && !(i >= 2 && file.is_punct(i - 1, ":") && file.is_punct(i - 2, ":"))
            {
                let mentions_simtime = (0..n).any(|k| {
                    file.is_ident_kind(k)
                        && file.text(k) == "SimTime"
                        && !file.fa.in_test_scope(file.tok(k).start)
                });
                if mentions_simtime {
                    out.push(Finding::new(
                        file.ctx.path.clone(),
                        file.tok(i).line,
                        "kernel-misuse",
                        "hand-rolled `BinaryHeap` event list in a crate that handles \
                         `SimTime`: the pop order of a bare heap has no `(at, seq)` \
                         FIFO tie-break; drive events through `pronghorn_sim::TimerWheel`, \
                         or annotate `// pronglint: allow(kernel-misuse): <why>`"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}
