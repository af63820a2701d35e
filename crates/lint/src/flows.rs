//! The cross-file flow rules: `resource-flow`, `opstats-flow`, and the
//! four-rule **determinism family**, all built on the shared
//! [`crate::dataflow::Engine`] (call graph + per-statement dataflow
//! facts); see [`crate::rules::Rule::explain`] and DESIGN.md §11/§15 for
//! the policy.
//!
//! * **resource-flow** — a function that acquires pooled buffers
//!   (`take_index_buffer` / `take_value_buffer`) must resolve them: call a
//!   recycle primitive or a CSR assembly constructor directly, carry them
//!   out via a `// lint: buffer-carrier -- <where>` declaration, or call
//!   (transitively) a function that does. A `?` early-return on or after
//!   the first acquisition line is flagged separately — the error path
//!   leaks even when the happy path resolves.
//! * **opstats-flow** — every public kernel whose return type carries
//!   `OpStats` must share a transitive caller with an accounting sink
//!   (`// lint: opstats-sink`): some join point both runs the kernel and
//!   feeds the accounting, so its counts cannot silently vanish.
//! * **determinism family** — functions on a *deterministic path* (they
//!   feed or are fed by an `OpStats`-returning kernel, a JSON emitter, or
//!   a `// lint: deterministic` root) must not iterate unordered
//!   containers (`unordered-iteration`), accumulate floats in an unpinned
//!   order (`float-reduction-order`), or read wall-clock/thread/env state
//!   (`ambient-nondeterminism`); and *no* library function may spawn
//!   threads outside the audited fixed-order merge helpers
//!   (`block-merge-order`). Suppression is fn-scoped:
//!   `// lint: order-insensitive -- <reason>` for the first two,
//!   `// lint: timing-carrier -- <reason>` for ambient reads, and
//!   `// lint: ordered-merge -- <reason>` declaring an audited spawner.
//!
//! Both legacy rules used to run one reachability walk per function; on
//! the engine each needs exactly one closure over the whole graph
//! (reverse from the resolver base, forward from the sink join points) —
//! findings are pinned byte-identical by `tests/flow_baseline.rs`.

use std::collections::{BTreeMap, BTreeSet};

use crate::dataflow::{Engine, Event, EventKind};
use crate::lexer::Token;
use crate::parser::{ParsedFile, Vis};
use crate::rules::{FileMarkers, Finding, Rule};

/// Pool acquisition primitives (defined in `crates/sparse/src/workspace.rs`).
const ACQUIRE_FNS: &[&str] = &["take_index_buffer", "take_value_buffer"];

/// Calls that resolve pooled buffers: pool returns and the CSR constructors
/// that take buffer ownership into a returned matrix.
const RESOLVER_FNS: &[&str] = &[
    "recycle",
    "recycle_dense",
    "recycle_index_buffer",
    "recycle_value_buffer",
    "from_raw_parts",
];

/// The modules whose public stats-returning fns count as kernels in
/// workspace mode.
const KERNEL_FILES: &[&str] = &[
    "crates/sparse/src/ops.rs",
    "crates/sparse/src/parallel.rs",
    "crates/sparse/src/simd.rs",
];

/// How file paths scope the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Real workspace scan: `resource-flow` applies to idgnn-sparse library
    /// code (minus the pool implementation itself), `opstats-flow` to the
    /// kernel modules, and the determinism family to all library code.
    Workspace,
    /// Explicit files / fixtures: every analyzed file is in scope for every
    /// rule.
    Explicit,
}

/// One engine build shared by every flow rule. Construct once, then run
/// all rules (`run`) or a single one (`run_rule`, the `--timing` path).
pub struct FlowAnalysis<'a> {
    engine: Engine,
    markers: &'a BTreeMap<String, FileMarkers>,
    mode: AnalysisMode,
    /// `// lint: buffer-carrier` fns.
    carriers: BTreeSet<usize>,
    /// `// lint: opstats-sink` fns.
    sinks: BTreeSet<usize>,
    /// `// lint: order-insensitive` fns.
    order_insensitive: BTreeSet<usize>,
    /// `// lint: timing-carrier` fns.
    timing_carriers: BTreeSet<usize>,
    /// `// lint: ordered-merge` fns.
    ordered_merges: BTreeSet<usize>,
    /// Every node on a deterministic path (see `determinism_roots`).
    det_paths: BTreeSet<usize>,
    /// Source trees of binary-only packages (workspace mode only).
    bin_src_dirs: BTreeSet<String>,
}

/// The rules this module implements, in canonical report order.
pub const FLOW_RULES: [Rule; 6] = [
    Rule::ResourceFlow,
    Rule::OpstatsFlow,
    Rule::UnorderedIteration,
    Rule::FloatReductionOrder,
    Rule::AmbientNondeterminism,
    Rule::BlockMergeOrder,
];

impl<'a> FlowAnalysis<'a> {
    /// Builds the engine and resolves every fn-scoped marker. `tokens`
    /// maps rel paths to the token streams the files were parsed from.
    pub fn new(
        files: &[ParsedFile],
        tokens: &BTreeMap<String, Vec<Token>>,
        markers: &'a BTreeMap<String, FileMarkers>,
        mode: AnalysisMode,
    ) -> Self {
        let engine = Engine::build(files, tokens);
        let carriers = engine.marked(markers, |m| &m.carriers);
        let sinks = engine.marked(markers, |m| &m.sinks);
        let order_insensitive = engine.marked(markers, |m| &m.order_insensitive);
        let timing_carriers = engine.marked(markers, |m| &m.timing_carriers);
        let ordered_merges = engine.marked(markers, |m| &m.ordered_merges);
        let det_marked = engine.marked(markers, |m| &m.deterministic);
        let roots = determinism_roots(&engine, &det_marked);
        let det_paths = engine.determinism_paths(&roots);
        let bin_src_dirs = match mode {
            AnalysisMode::Workspace => {
                crate::driver::binary_src_dirs(files.iter().map(|f| f.rel.as_str()))
            }
            AnalysisMode::Explicit => BTreeSet::new(),
        };
        FlowAnalysis {
            engine,
            markers,
            mode,
            carriers,
            sinks,
            order_insensitive,
            timing_carriers,
            ordered_merges,
            det_paths,
            bin_src_dirs,
        }
    }

    /// Runs every flow rule; suppressions applied, findings in canonical
    /// (file, line, rule) order.
    pub fn run(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for rule in FLOW_RULES {
            findings.extend(self.run_rule(rule));
        }
        findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        findings
    }

    /// Runs one flow rule (the `--timing` unit); suppressions applied.
    /// Returns nothing for rules this module does not implement.
    pub fn run_rule(&self, rule: Rule) -> Vec<Finding> {
        let mut findings = Vec::new();
        match rule {
            Rule::ResourceFlow => self.resource_flow(&mut findings),
            Rule::OpstatsFlow => self.opstats_flow(&mut findings),
            Rule::UnorderedIteration => self.unordered_iteration(&mut findings),
            Rule::FloatReductionOrder => self.float_reduction_order(&mut findings),
            Rule::AmbientNondeterminism => self.ambient_nondeterminism(&mut findings),
            Rule::BlockMergeOrder => self.block_merge_order(&mut findings),
            _ => {}
        }
        findings.retain(|f| {
            !self
                .markers
                .get(&f.file)
                .is_some_and(|m| m.allows.iter().any(|a| a.covers(f.rule, f.line)))
        });
        findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        findings
    }

    /// True if this node is subject to the determinism family under the
    /// current mode: library (non-test) code only in workspace scans.
    fn det_scope(&self, idx: usize) -> bool {
        let Some(node) = self.engine.graph.fns.get(idx) else { return false };
        if node.item.in_test {
            return false;
        }
        match self.mode {
            AnalysisMode::Workspace => crate::driver::classify(&node.file, &self.bin_src_dirs)
                .is_some_and(|s| s.library_code),
            AnalysisMode::Explicit => true,
        }
    }

    /// Events of the given kinds for node `idx`.
    fn events(&self, idx: usize, kinds: &[EventKind]) -> Vec<&Event> {
        self.engine
            .events
            .get(idx)
            .map(|evs| evs.iter().filter(|e| kinds.contains(&e.kind)).collect())
            .unwrap_or_default()
    }

    fn resource_flow(&self, findings: &mut Vec<Finding>) {
        let graph = &self.engine.graph;
        // Base set: nodes that resolve buffers in their own body, plus
        // declared carriers. A node resolves iff it can reach the base —
        // i.e. iff it is in the base's reverse closure (one walk total).
        let mut base: BTreeSet<usize> = self.carriers.clone();
        for (idx, node) in graph.fns.iter().enumerate() {
            if node.item.calls.iter().any(|c| RESOLVER_FNS.contains(&c.name.as_str())) {
                base.insert(idx);
            }
        }
        let base_seeds: Vec<usize> = base.iter().copied().collect();
        let resolved = graph.callers_of(&base_seeds);
        for (idx, node) in graph.fns.iter().enumerate() {
            if node.item.in_test || !self.in_resource_scope(&node.file, &node.krate) {
                continue;
            }
            let first_acquire = node
                .item
                .calls
                .iter()
                .filter(|c| ACQUIRE_FNS.contains(&c.name.as_str()))
                .map(|c| c.line)
                .min();
            let Some(acquire_line) = first_acquire else { continue };
            if !resolved.contains(&idx) {
                findings.push(Finding {
                    rule: Rule::ResourceFlow,
                    file: node.file.clone(),
                    line: acquire_line,
                    message: format!(
                        "`{}` acquires a pooled buffer here but no path reaches a recycle \
                         (`recycle*`) or CSR assembly (`from_raw_parts`); the \
                         workspace arena leaks — recycle it, assemble it into the returned \
                         matrix, or declare `// lint: buffer-carrier -- <where ownership goes>`",
                        node.item.qual_name()
                    ),
                });
            }
            for &try_line in &node.item.tries {
                if try_line >= acquire_line {
                    findings.push(Finding {
                        rule: Rule::ResourceFlow,
                        file: node.file.clone(),
                        line: try_line,
                        message: format!(
                            "`?` early-return in `{}` after a pooled-buffer acquisition \
                             (line {acquire_line}) leaks the buffer on the error path; \
                             validate inputs before acquiring, or recycle before propagating",
                            node.item.qual_name()
                        ),
                    });
                }
            }
        }
    }

    /// True if this node is subject to `resource-flow` under `mode`.
    fn in_resource_scope(&self, file: &str, krate: &str) -> bool {
        match self.mode {
            AnalysisMode::Workspace => krate == "sparse" && !file.ends_with("/workspace.rs"),
            AnalysisMode::Explicit => true,
        }
    }

    fn opstats_flow(&self, findings: &mut Vec<Finding>) {
        let graph = &self.engine.graph;
        // Functions that (transitively) call a sink are the candidate join
        // points; a kernel is accounted iff some join point reaches it —
        // i.e. iff it is in the joins' forward closure (one walk total).
        let sink_seeds: Vec<usize> = self.sinks.iter().copied().collect();
        let join_seeds: Vec<usize> = graph.callers_of(&sink_seeds).into_iter().collect();
        let accounted = graph.reachable_from(&join_seeds);
        for (idx, node) in graph.fns.iter().enumerate() {
            if !self.is_kernel(&node.file, node) {
                continue;
            }
            if !accounted.contains(&idx) {
                findings.push(Finding {
                    rule: Rule::OpstatsFlow,
                    file: node.file.clone(),
                    line: node.item.line,
                    message: format!(
                        "public kernel `{}` returns OpStats but no transitive caller joins it \
                         to an accounting sink (`// lint: opstats-sink`); its counted FLOPs \
                         never reach the figure pipeline",
                        node.item.qual_name()
                    ),
                });
            }
        }
    }

    /// True if this node is an `opstats-flow` kernel under `mode`.
    fn is_kernel(&self, file: &str, node: &crate::symgraph::FnNode) -> bool {
        let in_scope = match self.mode {
            AnalysisMode::Workspace => KERNEL_FILES.contains(&file),
            AnalysisMode::Explicit => true,
        };
        in_scope
            && !node.item.in_test
            && node.item.vis == Vis::Public
            && node.item.ret.iter().any(|r| r == "OpStats")
    }

    fn unordered_iteration(&self, findings: &mut Vec<Finding>) {
        for &idx in &self.det_paths {
            if !self.det_scope(idx) || self.order_insensitive.contains(&idx) {
                continue;
            }
            let Some(node) = self.engine.graph.fns.get(idx) else { continue };
            for ev in
                self.events(idx, &[EventKind::UnorderedConstruct, EventKind::UnorderedIter])
            {
                let detail = match ev.kind {
                    EventKind::UnorderedConstruct => {
                        format!("builds a `{}`", ev.what)
                    }
                    _ => format!("iterates an unordered container ({})", ev.what),
                };
                findings.push(Finding {
                    rule: Rule::UnorderedIteration,
                    file: node.file.clone(),
                    line: ev.line,
                    message: format!(
                        "`{}` {detail} on a deterministic path; hash iteration order is \
                         seeded per-process, so downstream results can differ run to run — \
                         use `BTreeMap`/`BTreeSet` or a sorted Vec, or declare \
                         `// lint: order-insensitive -- <reason>`",
                        node.item.qual_name()
                    ),
                });
            }
        }
    }

    fn float_reduction_order(&self, findings: &mut Vec<Finding>) {
        for &idx in &self.det_paths {
            if !self.det_scope(idx) || self.order_insensitive.contains(&idx) {
                continue;
            }
            let Some(node) = self.engine.graph.fns.get(idx) else { continue };
            for ev in self.events(idx, &[EventKind::FloatReduction]) {
                findings.push(Finding {
                    rule: Rule::FloatReductionOrder,
                    file: node.file.clone(),
                    line: ev.line,
                    message: format!(
                        "float accumulation in `{}` ({}) draws from an unordered container, \
                         so addition order — and the rounded result — is not pinned; sort \
                         first, switch to `BTreeMap`, or merge through the fixed block-order \
                         helpers, or declare `// lint: order-insensitive -- <reason>`",
                        node.item.qual_name(),
                        ev.what
                    ),
                });
            }
        }
    }

    fn ambient_nondeterminism(&self, findings: &mut Vec<Finding>) {
        for &idx in &self.det_paths {
            if !self.det_scope(idx) || self.timing_carriers.contains(&idx) {
                continue;
            }
            let Some(node) = self.engine.graph.fns.get(idx) else { continue };
            for ev in self.events(idx, &[EventKind::Ambient]) {
                findings.push(Finding {
                    rule: Rule::AmbientNondeterminism,
                    file: node.file.clone(),
                    line: ev.line,
                    message: format!(
                        "`{}` reads ambient state (`{}`) on a deterministic path; results \
                         must not depend on wall-clock, thread identity, or the environment \
                         — hoist the read out of the deterministic core, or declare \
                         `// lint: timing-carrier -- <reason>` for an audited timing sidecar",
                        node.item.qual_name(),
                        ev.what
                    ),
                });
            }
        }
    }

    fn block_merge_order(&self, findings: &mut Vec<Finding>) {
        // Unlike the path-scoped rules, this one is global over library
        // code: *any* direct thread fan-out outside an audited
        // `// lint: ordered-merge` helper can merge results in completion
        // order and must be routed through `parallel::fork_join`/
        // `map_blocks*` instead.
        for (idx, node) in self.engine.graph.fns.iter().enumerate() {
            if !self.det_scope(idx) || self.ordered_merges.contains(&idx) {
                continue;
            }
            for ev in self.events(idx, &[EventKind::Spawn]) {
                findings.push(Finding {
                    rule: Rule::BlockMergeOrder,
                    file: node.file.clone(),
                    line: ev.line,
                    message: format!(
                        "`{}` spawns threads outside the audited fixed-order merge helpers, \
                         so per-block results may merge in completion order; route the work \
                         through `parallel::fork_join`/`map_blocks*`, or audit the merge and \
                         declare `// lint: ordered-merge -- <why block order is preserved>`",
                        node.item.qual_name()
                    ),
                });
            }
        }
    }
}

/// Deterministic-path roots: `OpStats`-returning fns (the bit-identical
/// kernel contract), JSON emitters (`*json*` fn names — every figure/bench
/// report writer), and explicit `// lint: deterministic` markers.
fn determinism_roots(engine: &Engine, marked: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut roots = marked.clone();
    for (idx, node) in engine.graph.fns.iter().enumerate() {
        if node.item.in_test {
            continue;
        }
        if node.item.ret.iter().any(|r| r == "OpStats") || node.item.name.contains("json") {
            roots.insert(idx);
        }
    }
    roots
}

/// Runs every flow rule over parsed files (convenience wrapper around
/// [`FlowAnalysis`]). `tokens` maps rel paths to token streams, `markers`
/// to collected markers; suppressions are applied before returning.
pub fn analyze(
    files: &[ParsedFile],
    tokens: &BTreeMap<String, Vec<Token>>,
    markers: &BTreeMap<String, FileMarkers>,
    mode: AnalysisMode,
) -> Vec<Finding> {
    FlowAnalysis::new(files, tokens, markers, mode).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules::file_markers;

    fn run(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let mut files = Vec::new();
        let mut markers = BTreeMap::new();
        let mut tokens = BTreeMap::new();
        for (rel, src) in srcs {
            let toks = lex(src);
            markers.insert(rel.to_string(), file_markers(&toks));
            files.push(parse(rel, &toks));
            tokens.insert(rel.to_string(), toks);
        }
        analyze(&files, &tokens, &markers, AnalysisMode::Explicit)
    }

    fn slugs(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.slug()).collect()
    }

    #[test]
    fn leaked_acquisition_is_flagged() {
        let got = run(&[("a.rs", "fn leak(w: &mut W) { let b = take_index_buffer(w); b.len(); }")]);
        assert_eq!(slugs(&got), vec!["resource-flow"]);
    }

    #[test]
    fn direct_recycle_resolves() {
        let got = run(&[(
            "a.rs",
            "fn ok(w: &mut W) { let b = take_index_buffer(w); recycle_index_buffer(w, b); }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn transitive_resolution_through_helper() {
        let got = run(&[(
            "a.rs",
            "fn outer(w: &mut W) { let b = take_value_buffer(w); finish(w, b); }\n\
             fn finish(w: &mut W, b: Vec<f64>) { recycle_value_buffer(w, b); }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn carrier_marker_resolves_and_unmarked_twin_does_not() {
        let got = run(&[(
            "a.rs",
            "// lint: buffer-carrier -- indices move into the returned CsrBlock\n\
             fn carrier(w: &mut W) -> B { B(take_index_buffer(w)) }\n\
             fn twin(w: &mut W) -> B { B(take_index_buffer(w)) }",
        )]);
        assert_eq!(slugs(&got), vec!["resource-flow"]);
        assert!(got.first().is_some_and(|f| f.message.contains("twin")));
    }

    #[test]
    fn try_after_acquire_is_flagged_but_before_is_fine() {
        let src = "fn f(w: &mut W) -> Result<(), E> {\n\
                   validate(w)?;\n\
                   let b = take_index_buffer(w);\n\
                   fill(&mut b)?;\n\
                   recycle_index_buffer(w, b);\n\
                   Ok(())\n}";
        let got = run(&[("a.rs", src)]);
        assert_eq!(slugs(&got), vec!["resource-flow"]);
        assert_eq!(got.first().map(|f| f.line), Some(4));
    }

    #[test]
    fn kernel_without_sink_is_flagged() {
        let got = run(&[(
            "a.rs",
            "pub fn kern(x: &M) -> OpStats { count(x) }\nfn driver(x: &M) { kern(x); }",
        )]);
        assert_eq!(slugs(&got), vec!["opstats-flow"]);
    }

    #[test]
    fn kernel_joined_to_sink_is_accounted() {
        let got = run(&[(
            "a.rs",
            "pub fn kern(x: &M) -> OpStats { count(x) }\n\
             // lint: opstats-sink\n\
             fn record(s: OpStats) { store(s); }\n\
             fn driver(x: &M) { let s = kern(x); record(s); }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn join_point_may_be_far_up_the_call_chain() {
        let got = run(&[
            (
                "kernels.rs",
                "pub fn kern(x: &M) -> OpStats { count(x) }\n\
                 pub fn mid(x: &M) -> OpStats { kern(x) }",
            ),
            (
                "pipeline.rs",
                "// lint: opstats-sink\n\
                 fn account(s: OpStats) {}\n\
                 fn top(x: &M) { let s = run_all(x); account(s); }\n\
                 fn run_all(x: &M) -> OpStats { mid(x) }",
            ),
        ]);
        assert!(got.is_empty());
    }

    #[test]
    fn allow_marker_suppresses_flow_findings() {
        let got = run(&[(
            "a.rs",
            "// lint: allow(opstats-flow) -- reference path audited by equivalence tests\n\
             pub fn kern(x: &M) -> OpStats { count(x) }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn non_public_or_non_stats_fns_are_not_kernels() {
        let got = run(&[(
            "a.rs",
            "fn private_kern(x: &M) -> OpStats { count(x) }\n\
             pub fn no_stats(x: &M) -> usize { x.len() }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let got = run(&[(
            "a.rs",
            "#[cfg(test)] mod tests {\n\
             fn leak(w: &mut W) { let b = take_index_buffer(w); }\n\
             }",
        )]);
        assert!(got.is_empty());
    }

    // ---- determinism family -------------------------------------------

    #[test]
    fn hashmap_on_path_to_opstats_kernel_is_flagged() {
        let got = run(&[(
            "a.rs",
            "pub fn kernel(x: &M) -> OpStats { count(x) }\n\
             fn prepare(x: &M) { let mut m = HashMap::new(); m.insert(1, 2); kernel(x); }",
        )]);
        assert!(slugs(&got).contains(&"unordered-iteration"));
    }

    #[test]
    fn hashmap_off_every_deterministic_path_is_clean() {
        let got = run(&[(
            "a.rs",
            "fn unrelated() { let mut m = HashMap::new(); m.insert(1, 2); }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn deterministic_marker_roots_a_path() {
        let got = run(&[(
            "a.rs",
            "// lint: deterministic\n\
             fn root(x: &M) { helper(x); }\n\
             fn helper(x: &M) { let mut s = HashSet::new(); s.insert(1); }",
        )]);
        assert_eq!(slugs(&got), vec!["unordered-iteration"]);
    }

    #[test]
    fn order_insensitive_marker_suppresses_unordered_rules() {
        let got = run(&[(
            "a.rs",
            "// lint: deterministic\n\
             fn root(x: &M) { helper(x); }\n\
             // lint: order-insensitive -- membership set, never iterated\n\
             fn helper(x: &M) { let mut s = HashSet::new(); s.insert(1); }",
        )]);
        assert!(got.is_empty());
    }

    #[test]
    fn float_fold_over_tainted_map_is_flagged_with_both_rules() {
        let got = run(&[(
            "a.rs",
            "// lint: deterministic\n\
             fn root(m: &HashMap<u32, f32>) -> f32 { m.values().fold(0.0, |a, b| a + b) }",
        )]);
        assert!(slugs(&got).contains(&"float-reduction-order"));
        assert!(slugs(&got).contains(&"unordered-iteration"));
    }

    #[test]
    fn ambient_reads_on_json_path_are_flagged_and_carrier_suppresses() {
        let got = run(&[(
            "a.rs",
            "pub fn write_json(r: &R) { let t = Instant::now(); emit(r, t); }",
        )]);
        assert_eq!(slugs(&got), vec!["ambient-nondeterminism"]);
        let ok = run(&[(
            "a.rs",
            "// lint: timing-carrier -- wall-clock lands in the timing sidecar, not figure data\n\
             pub fn write_json(r: &R) { let t = Instant::now(); emit(r, t); }",
        )]);
        assert!(ok.is_empty());
    }

    #[test]
    fn unaudited_spawn_is_flagged_and_ordered_merge_suppresses() {
        let got = run(&[(
            "a.rs",
            "pub fn fan_out(f: F) { std::thread::scope(|s| { s.spawn(f); }); }",
        )]);
        assert_eq!(slugs(&got), vec!["block-merge-order"]);
        let ok = run(&[(
            "a.rs",
            "// lint: ordered-merge -- handles joined in declared block order below\n\
             pub fn fan_out(f: F) { std::thread::scope(|s| { s.spawn(f); }); }",
        )]);
        assert!(ok.is_empty());
    }

    #[test]
    fn callees_of_a_root_are_also_on_the_path() {
        let got = run(&[(
            "a.rs",
            "pub fn emit_json(r: &R) { fmt_rows(r); }\n\
             fn fmt_rows(r: &R) { for k in r.m.keys() { } let mut m = HashMap::new(); }",
        )]);
        assert_eq!(slugs(&got), vec!["unordered-iteration"]);
    }

    #[test]
    fn run_rule_union_matches_run() {
        let srcs = [(
            "a.rs",
            "pub fn kern(x: &M) -> OpStats { let mut m = HashMap::new(); count(x) }\n\
             fn lost(w: &mut W) { let b = take_index_buffer(w); }\n\
             pub fn fan(f: F) { spawn(f); }",
        )];
        let mut files = Vec::new();
        let mut markers = BTreeMap::new();
        let mut tokens = BTreeMap::new();
        for (rel, src) in srcs {
            let toks = lex(src);
            markers.insert(rel.to_string(), file_markers(&toks));
            files.push(parse(rel, &toks));
            tokens.insert(rel.to_string(), toks);
        }
        let analysis = FlowAnalysis::new(&files, &tokens, &markers, AnalysisMode::Explicit);
        let mut unioned: Vec<Finding> = Vec::new();
        for rule in FLOW_RULES {
            unioned.extend(analysis.run_rule(rule));
        }
        unioned.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        let all = analysis.run();
        assert_eq!(all.len(), unioned.len());
        assert!(!all.is_empty());
        for (a, b) in all.iter().zip(&unioned) {
            assert_eq!((a.rule, &a.file, a.line, &a.message), (b.rule, &b.file, b.line, &b.message));
        }
    }
}
