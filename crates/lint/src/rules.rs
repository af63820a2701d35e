//! The token-level lint rules, plus marker parsing and suppression.
//!
//! Token rules operate on the stream from [`crate::lexer`] — they never see
//! the raw source, so anything inside strings, raw strings, chars, or
//! comments is invisible to them by construction. The semantic (call-graph)
//! rules live in [`crate::flows`] and [`crate::hwbudget`] but share this
//! module's [`Rule`] identity, markers, and suppression machinery.
//!
//! | slug | what it catches |
//! |------|-----------------|
//! | `hot-path-alloc` | `Vec::new` / `Vec::with_capacity` / `vec![` / `.collect()` / `Box::new` in hot modules or `// lint: hot-path` functions |
//! | `panic-surface` | `.unwrap()` / `.expect(` / `panic!` / `unreachable!` in library code |
//! | `unsafe-code` | any `unsafe` token; manifest checks live in [`crate::driver`] |
//! | `opstats-literal` | `OpStats { .. }` struct literals outside `stats.rs` |
//! | `resource-flow` | pooled buffer acquisitions that miss every recycle path ([`crate::flows`]) |
//! | `opstats-flow` | stats-returning kernels unreachable from an accounting sink ([`crate::flows`]) |
//! | `hw-budget` | accelerator configs that break the Eqs. 16–22 budget model ([`crate::hwbudget`]) |
//! | `unordered-iteration` | `HashMap`/`HashSet` on deterministic paths ([`crate::flows`]) |
//! | `float-reduction-order` | float reductions whose addition order is unpinned ([`crate::flows`]) |
//! | `ambient-nondeterminism` | wall-clock / thread-id / env reads on deterministic paths ([`crate::flows`]) |
//! | `block-merge-order` | thread fan-out outside the audited fixed-order merge helper ([`crate::flows`]) |
//! | `malformed-marker` | a `// lint:` marker the tool cannot honor |
//!
//! Suppression: `// lint: allow(<slug>) -- <reason>` silences findings of
//! that rule on the marker's own line and the next line. The reason is
//! mandatory; a marker without one is itself a finding (`malformed-marker`)
//! and suppresses nothing. Further markers feed the semantic rules:
//! `// lint: buffer-carrier -- <reason>` documents a function that moves
//! pooled buffers out through its return value, `// lint: opstats-sink`
//! marks an accounting entry point for `opstats-flow` reachability, and the
//! determinism family (DESIGN.md §15) adds `deterministic` (the following fn
//! is a determinism root), `order-insensitive -- <reason>` (fn-scoped
//! suppression of the container-order rules), `timing-carrier -- <reason>`
//! (the following fn measures wall-clock for a sidecar by design), and
//! `ordered-merge -- <reason>` (the following fn is a hand-audited
//! fixed-order merge helper allowed to spawn threads).

use crate::lexer::{Token, TokenKind};

/// A lint rule identity. `MalformedMarker` is the tool's own meta-rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: allocation in hot paths.
    HotPathAlloc,
    /// R2: panic surface in library code.
    PanicSurface,
    /// R3: `unsafe` usage.
    UnsafeCode,
    /// R4: raw `OpStats` struct literals.
    OpstatsLiteral,
    /// R5: pooled-buffer acquisitions that never reach a recycle path.
    ResourceFlow,
    /// R6: stats-returning kernels unreachable from an accounting sink.
    OpstatsFlow,
    /// R7: accelerator configs violating the static Eqs. 16–22 budget model.
    HwBudget,
    /// R8: `HashMap`/`HashSet` construction or iteration on deterministic
    /// paths (the `determinism` family, DESIGN.md §15).
    UnorderedIteration,
    /// R9: float accumulation whose addition order is not pinned.
    FloatReductionOrder,
    /// R10: wall-clock, thread-identity, or environment reads on
    /// deterministic paths.
    AmbientNondeterminism,
    /// R11: thread fan-out outside the audited fixed-order merge helper.
    BlockMergeOrder,
    /// A `// lint:` marker the tool cannot parse or honor.
    MalformedMarker,
}

impl Rule {
    /// Stable slug used in output, suppression markers, and the baseline.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::PanicSurface => "panic-surface",
            Rule::UnsafeCode => "unsafe-code",
            Rule::OpstatsLiteral => "opstats-literal",
            Rule::ResourceFlow => "resource-flow",
            Rule::OpstatsFlow => "opstats-flow",
            Rule::HwBudget => "hw-budget",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::FloatReductionOrder => "float-reduction-order",
            Rule::AmbientNondeterminism => "ambient-nondeterminism",
            Rule::BlockMergeOrder => "block-merge-order",
            Rule::MalformedMarker => "malformed-marker",
        }
    }

    /// Inverse of [`Rule::slug`].
    pub fn from_slug(s: &str) -> Option<Rule> {
        match s {
            "hot-path-alloc" => Some(Rule::HotPathAlloc),
            "panic-surface" => Some(Rule::PanicSurface),
            "unsafe-code" => Some(Rule::UnsafeCode),
            "opstats-literal" => Some(Rule::OpstatsLiteral),
            "resource-flow" => Some(Rule::ResourceFlow),
            "opstats-flow" => Some(Rule::OpstatsFlow),
            "hw-budget" => Some(Rule::HwBudget),
            "unordered-iteration" => Some(Rule::UnorderedIteration),
            "float-reduction-order" => Some(Rule::FloatReductionOrder),
            "ambient-nondeterminism" => Some(Rule::AmbientNondeterminism),
            "block-merge-order" => Some(Rule::BlockMergeOrder),
            "malformed-marker" => Some(Rule::MalformedMarker),
            _ => None,
        }
    }

    /// The four `determinism` sub-rules (DESIGN.md §15), in report order.
    pub fn determinism_family() -> [Rule; 4] {
        [
            Rule::UnorderedIteration,
            Rule::FloatReductionOrder,
            Rule::AmbientNondeterminism,
            Rule::BlockMergeOrder,
        ]
    }

    /// All rules (the meta-rule last), for reporting.
    pub fn all() -> [Rule; 12] {
        [
            Rule::HotPathAlloc,
            Rule::PanicSurface,
            Rule::UnsafeCode,
            Rule::OpstatsLiteral,
            Rule::ResourceFlow,
            Rule::OpstatsFlow,
            Rule::HwBudget,
            Rule::UnorderedIteration,
            Rule::FloatReductionOrder,
            Rule::AmbientNondeterminism,
            Rule::BlockMergeOrder,
            Rule::MalformedMarker,
        ]
    }

    /// Long-form rationale for `idgnn-lint --explain <slug>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot-path-alloc — no allocation in the sparse kernel hot paths.\n\n\
                The fused SpGEMM/SpMM kernels (DESIGN.md §8) are allocation-free by\n\
                design: every scratch buffer comes from the pooled Workspace\n\
                arena so steady-state snapshot processing never touches the system\n\
                allocator. This rule flags `Vec::new`, `Vec::with_capacity`, `vec![..]`,\n\
                `.collect()`, and `Box::new` inside `crates/sparse/src/{ops,parallel,\n\
                simd}.rs` or any function marked `// lint: hot-path`. O(blocks) or\n\
                O(levels) setup allocations outside the per-row loops may be suppressed\n\
                with `// lint: allow(hot-path-alloc) -- <why it is not per-element>`.",
            Rule::PanicSurface => "panic-surface — library code must not panic on untrusted input.\n\n\
                Flags `.unwrap()`, `.expect(..)`, `panic!` and `unreachable!` in library\n\
                code (tests, benches, bins, and build scripts are exempt). Kernels\n\
                validate shapes up front and return `SparseError`; a panic in the\n\
                middle of a multi-hour DGNN sweep loses the run. Sites whose panic\n\
                cannot fire carry `// lint: allow(panic-surface) -- <the invariant>`.\n\
                Slice indexing `[..]` is not flagged: it is bounds-checked, and the\n\
                workspace forbids the `unsafe` that unchecked access would need.",
            Rule::UnsafeCode => "unsafe-code — the workspace forbids `unsafe` outright.\n\n\
                Two halves. The manifest half requires `unsafe_code = \"forbid\"` under\n\
                `[workspace.lints.rust]` in the root Cargo.toml (`deny` is a finding:\n\
                it can be overridden by a local `#[allow]`, `forbid` cannot) and\n\
                `[lints] workspace = true` in every first-party crate manifest. The\n\
                token half flags every `unsafe` keyword, including in cfg'd-out code\n\
                and test modules that rustc never sees. There is no allowlist and no\n\
                marker that lifts it: nothing in the accelerator model needs raw\n\
                pointers or unchecked indexing, and keeping the surface at zero makes\n\
                the deterministic-parallelism argument (DESIGN.md §7) purely\n\
                structural.",
            Rule::OpstatsLiteral => "opstats-literal — operation counts enter through one door.\n\n\
                `OpStats` powers every figure's work accounting (Eqs. 13–15 savings\n\
                included), so raw `OpStats { .. }` literals outside its home module\n\
                (crates/sparse/src/stats.rs) are flagged; construct counts with\n\
                `OpStats::counted(mults, adds)` instead. One constructor means one\n\
                place to audit when the accounting algebra changes.",
            Rule::ResourceFlow => "resource-flow — pooled buffers must return to the pool.\n\n\
                Cross-function rule over the symbol graph: any function in idgnn-sparse\n\
                that acquires a pooled buffer (`take_index_buffer` / `take_value_buffer`)\n\
                must, on some path, hand it back (`recycle`, `recycle_dense`,\n\
                `recycle_index_buffer`, `recycle_value_buffer`), assemble it into a\n\
                returned matrix (`from_raw_parts`, `assemble_csr`), or\n\
                call a function that does — otherwise the arena leaks and the\n\
                allocation-free steady state (DESIGN.md §8) silently degrades into\n\
                malloc churn. Functions that intentionally move buffers out through\n\
                their return value declare it with\n\
                `// lint: buffer-carrier -- <where ownership goes>`. The rule also\n\
                flags `?` early-returns *after* an acquisition: validate inputs before\n\
                taking buffers, or the error path leaks.",
            Rule::OpstatsFlow => "opstats-flow — every counted FLOP must reach the accounting.\n\n\
                Call-graph reachability rule: every public kernel in\n\
                crates/sparse/src/{ops,parallel,simd}.rs whose return type carries\n\
                `OpStats` must share a (transitive) caller with an accounting sink\n\
                (a function marked `// lint: opstats-sink`, e.g. the bench\n\
                `ExecAccounting` builder). A kernel nobody joins to a sink produces\n\
                operation counts that never reach results/*.json — exactly the silent\n\
                under-accounting the Eq. 13–15 savings bookkeeping must not have.\n\
                Reference variants kept only for equivalence tests carry\n\
                `// lint: allow(opstats-flow) -- <why the counts are audited elsewhere>`.",
            Rule::HwBudget => "hw-budget — the shipped accelerator config must satisfy the paper's\n\
                budgets before any simulation runs.\n\n\
                Static verifier over the shared `idgnn_hw::budget::verify_config` API\n\
                (Eqs. 16–22 pipeline model in crates/hw/src/schedule.rs, also the\n\
                idgnn-dse pruning predicate): for every\n\
                Table-I dataset shape, the per-PE GSB tile (indptr slice + double-\n\
                buffered mean-degree row) must fit the 128 KB GSB, the double-buffered\n\
                feature-column tile must fit the 100 KB LB, resident weights plus\n\
                staged tiles must fit the 64 MB GLB, the alpha/beta MAC split must be\n\
                representable at 1/16 granularity, and `scaled_down` must stay on a\n\
                consistent square torus at every scale 1–64. Violations point at\n\
                crates/hw/src/config.rs and fail the lint before any run burns time.",
            Rule::UnorderedIteration => "unordered-iteration — no unordered containers on deterministic paths.\n\n\
                First determinism sub-rule (DESIGN.md §15). Every headline claim in this\n\
                repo — bit-identical parallel kernels, byte-identical figure JSON, a\n\
                parallelism-invariant DSE front — assumes nothing in a result-producing\n\
                path depends on `HashMap`/`HashSet` iteration order. The dataflow engine\n\
                marks a function *deterministic-path* when it transitively reaches (or is\n\
                reached by) an `OpStats`-returning kernel, a JSON emitter, or a\n\
                `// lint: deterministic` marker; inside such functions any\n\
                `HashMap`/`HashSet` construction, and any iteration over a local or\n\
                parameter the per-statement def/use analysis tainted as unordered, is a\n\
                finding. Use `BTreeMap`/`BTreeSet` or a sorted vec, or declare\n\
                `// lint: order-insensitive -- <why order cannot leak into results>`\n\
                on the function.",
            Rule::FloatReductionOrder => "float-reduction-order — float addition order must be pinned.\n\n\
                Second determinism sub-rule (DESIGN.md §15). Float addition is not\n\
                associative, so an `f32`/`f64` `sum()`/`fold()`/`product()` whose source\n\
                iterates an *unordered* container (per the same def/use taint as\n\
                unordered-iteration) can change bits run-to-run even on one thread.\n\
                Reductions over slices, `Vec`s, ranges, and CSR rows are declared-order\n\
                and fine; results gathered across threads belong in the fixed item\n\
                order of sparse/parallel.rs (see block-merge-order). Pin the order by sorting\n\
                first, or declare the enclosing function\n\
                `// lint: order-insensitive -- <why>` when the reduction provably\n\
                commutes in exact arithmetic (integers reduced through floats do not).",
            Rule::AmbientNondeterminism => "ambient-nondeterminism — no wall-clock, thread identity, or\n\
                environment reads on deterministic paths.\n\n\
                Third determinism sub-rule (DESIGN.md §15). `Instant::now`,\n\
                `SystemTime`, `thread::current`, and `env::var*` smuggle ambient state\n\
                into functions the repo promises are pure functions of their inputs.\n\
                On a deterministic path (see unordered-iteration for the path\n\
                definition) each such call is a finding. Bench timing sidecars are\n\
                legitimate wall-clock consumers: declare the measuring function with\n\
                `// lint: timing-carrier -- <which sidecar consumes it>` — the marker\n\
                documents that the measurement feeds timings, never result bytes.\n\
                One-off configuration reads carry a line-scoped\n\
                `// lint: allow(ambient-nondeterminism) -- <reason>`.",
            Rule::BlockMergeOrder => "block-merge-order — every thread fan-out merges in declared order.\n\n\
                Fourth determinism sub-rule (DESIGN.md §15). The bit-identity argument\n\
                for host parallelism is structural: independent items (figure cells,\n\
                DSE candidates) run on workers and their results are assembled in\n\
                *declared* item order, never thread completion order. That proof only\n\
                covers fan-out that goes through the one audited spawner,\n\
                `map_items` in sparse/parallel.rs, which carries a\n\
                `// lint: ordered-merge -- <audit argument>` marker. Any other\n\
                function that calls `spawn` or `thread::scope` directly is a finding:\n\
                route the fan-out through `map_items`, or hand-audit the merge and\n\
                add the marker with its argument.",
            Rule::MalformedMarker => "malformed-marker — the lint's own markers must be well-formed.\n\n\
                A `// lint:` comment the tool cannot honor (unknown rule, missing\n\
                mandatory `-- <reason>`, `hot-path`/`buffer-carrier` not followed by a\n\
                function) is itself a finding. A typo'd suppression that silently\n\
                suppressed nothing would be strictly worse than an error.",
        }
    }
}

/// One lint hit: rule, file, 1-based line, human message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path (or the path as given on the command line).
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the hit.
    pub message: String,
}

/// What subset of rules applies to a file, derived from its path by
/// [`crate::driver`] (or forced all-on for explicit command-line files).
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// File is one of the designated hot modules: R1 applies file-wide.
    pub hot_module: bool,
    /// File is non-test library code: R2 and R4 apply.
    pub library_code: bool,
    /// File is the one legitimate home of `OpStats` literals (`stats.rs`).
    pub opstats_exempt: bool,
}

impl Scope {
    /// Scope for explicit command-line files and fixtures: everything on.
    pub fn all() -> Scope {
        Scope { hot_module: false, library_code: true, opstats_exempt: false }
    }
}

/// A parsed `// lint: allow(...)` marker.
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: Rule,
    /// 1-based line of the marker comment.
    pub line: usize,
}

impl Allow {
    /// True if this marker suppresses rule `rule` at `line` (a marker
    /// covers its own line and the next line).
    pub fn covers(&self, rule: Rule, line: usize) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

/// All markers in one file that the semantic rules consume.
#[derive(Debug, Clone, Default)]
pub struct FileMarkers {
    /// `allow(<rule>) -- <reason>` suppressions.
    pub allows: Vec<Allow>,
    /// Lines of `buffer-carrier -- <reason>` markers (ownership moves out
    /// through the return value of the following fn).
    pub carriers: Vec<usize>,
    /// Lines of `opstats-sink` markers (the following fn is an accounting
    /// entry point).
    pub sinks: Vec<usize>,
    /// Lines of `deterministic` markers (the following fn is a determinism
    /// root: everything reaching it joins the deterministic-path set).
    pub deterministic: Vec<usize>,
    /// Lines of `order-insensitive -- <reason>` markers (fn-scoped
    /// suppression of `unordered-iteration` / `float-reduction-order`).
    pub order_insensitive: Vec<usize>,
    /// Lines of `timing-carrier -- <reason>` markers (the following fn
    /// measures wall-clock for a timing sidecar by design).
    pub timing_carriers: Vec<usize>,
    /// Lines of `ordered-merge -- <reason>` markers (the following fn is a
    /// hand-audited fixed-order merge helper allowed to spawn threads).
    pub ordered_merges: Vec<usize>,
}

/// Collects the semantic-rule markers from a token stream without emitting
/// any findings (the token pass in [`lint_tokens`] owns malformed-marker
/// diagnostics so they are reported exactly once).
pub fn file_markers(tokens: &[Token]) -> FileMarkers {
    let mut m = FileMarkers::default();
    for tok in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
        match parse_marker_text(&tok.text) {
            Some(Marker::Allow(rule)) => m.allows.push(Allow { rule, line: tok.line }),
            Some(Marker::BufferCarrier) => m.carriers.push(tok.line),
            Some(Marker::OpstatsSink) => m.sinks.push(tok.line),
            Some(Marker::Deterministic) => m.deterministic.push(tok.line),
            Some(Marker::OrderInsensitive) => m.order_insensitive.push(tok.line),
            Some(Marker::TimingCarrier) => m.timing_carriers.push(tok.line),
            Some(Marker::OrderedMerge) => m.ordered_merges.push(tok.line),
            _ => {}
        }
    }
    m
}

/// What one `// lint:` comment means.
enum Marker {
    /// `hot-path`
    HotPath,
    /// `allow(<rule>) -- <reason>` (reason present and non-empty)
    Allow(Rule),
    /// `buffer-carrier -- <reason>`
    BufferCarrier,
    /// `opstats-sink`
    OpstatsSink,
    /// `deterministic`
    Deterministic,
    /// `order-insensitive -- <reason>`
    OrderInsensitive,
    /// `timing-carrier -- <reason>`
    TimingCarrier,
    /// `ordered-merge -- <reason>`
    OrderedMerge,
    /// Anything with `lint:` intent the tool cannot honor.
    Malformed(String),
}

/// A marker constructor paired with its `// lint:` keyword.
type KeywordMarker = (&'static str, fn() -> Marker);

/// Markers of the form `<keyword> -- <mandatory reason>` that attach to the
/// following fn, mapped to their parsed meaning.
const REASONED_FN_MARKERS: &[KeywordMarker] = &[
    ("buffer-carrier", || Marker::BufferCarrier),
    ("order-insensitive", || Marker::OrderInsensitive),
    ("timing-carrier", || Marker::TimingCarrier),
    ("ordered-merge", || Marker::OrderedMerge),
];

/// Parses the text of a plain line comment; `None` if it carries no
/// `lint:` marker at all.
fn parse_marker_text(text: &str) -> Option<Marker> {
    let body = text.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:")?.trim();
    if rest == "hot-path" {
        return Some(Marker::HotPath);
    }
    if rest == "opstats-sink" {
        return Some(Marker::OpstatsSink);
    }
    if rest == "deterministic" {
        return Some(Marker::Deterministic);
    }
    for (keyword, make) in REASONED_FN_MARKERS {
        if let Some(tail) = rest.strip_prefix(keyword) {
            let reason = tail.trim().strip_prefix("--").map(str::trim).unwrap_or("");
            if reason.is_empty() {
                return Some(Marker::Malformed(format!(
                    "{keyword} marker is missing its mandatory `-- <reason>`"
                )));
            }
            return Some(make());
        }
    }
    if let Some(inner) = rest.strip_prefix("allow(") {
        let (slug, tail) = match inner.split_once(')') {
            Some(p) => p,
            None => return Some(Marker::Malformed("unclosed `allow(` in lint marker".to_string())),
        };
        let rule = match Rule::from_slug(slug.trim()) {
            Some(r) => r,
            None => {
                return Some(Marker::Malformed(format!(
                    "unknown rule `{}` in lint allow marker",
                    slug.trim()
                )))
            }
        };
        let reason = tail.trim().strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            return Some(Marker::Malformed(format!(
                "allow({}) marker is missing its mandatory `-- <reason>`",
                rule.slug()
            )));
        }
        return Some(Marker::Allow(rule));
    }
    Some(Marker::Malformed(format!("unrecognized lint marker `lint: {rest}`")))
}

/// Lints one file's token stream under `scope`; `file` is the label used in
/// findings. This is the pure core — no filesystem access.
pub fn lint_tokens(file: &str, tokens: &[Token], scope: Scope) -> Vec<Finding> {
    lint_tokens_filtered(file, tokens, scope, None)
}

/// [`lint_tokens`] restricted to a single rule, for `--timing` per-rule
/// attribution: the union of the per-rule passes over every token rule (and
/// `malformed-marker`) equals the fused pass finding-for-finding.
pub fn lint_tokens_filtered(
    file: &str,
    tokens: &[Token],
    scope: Scope,
    only: Option<Rule>,
) -> Vec<Finding> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut regions = Regions::compute(&sig);

    let mut findings = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut hot_marker_lines: Vec<usize> = Vec::new();
    let mut fn_markers: Vec<(usize, &'static str)> = Vec::new();

    for tok in tokens.iter().filter(|t| t.kind == TokenKind::LineComment) {
        parse_marker(file, tok, &mut allows, &mut hot_marker_lines, &mut fn_markers, &mut findings);
    }
    for &line in &hot_marker_lines {
        if !regions.mark_hot_fn(&sig, line) {
            findings.push(Finding {
                rule: Rule::MalformedMarker,
                file: file.to_string(),
                line,
                message: "`// lint: hot-path` marker is not followed by a function".to_string(),
            });
        }
    }
    for &(line, kind) in &fn_markers {
        if !fn_follows(&sig, line) {
            findings.push(Finding {
                rule: Rule::MalformedMarker,
                file: file.to_string(),
                line,
                message: format!("`// lint: {kind}` marker is not followed by a function"),
            });
        }
    }

    scan_patterns(file, &sig, &regions, scope, &mut findings);

    // Apply suppressions: a marker covers its own line and the next line.
    findings.retain(|f| {
        f.rule == Rule::MalformedMarker
            || !allows
                .iter()
                .any(|a| a.rule == f.rule && (f.line == a.line || f.line == a.line + 1))
    });
    if let Some(rule) = only {
        findings.retain(|f| f.rule == rule);
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// Per-significant-token region flags: inside `#[...]` attributes, inside
/// `#[cfg(test)]` items, inside `// lint: hot-path` functions.
struct Regions {
    in_attr: Vec<bool>,
    in_test: Vec<bool>,
    in_hot: Vec<bool>,
}

impl Regions {
    fn compute(sig: &[&Token]) -> Regions {
        let n = sig.len();
        let mut r = Regions {
            in_attr: vec![false; n],
            in_test: vec![false; n],
            in_hot: vec![false; n],
        };
        let mut i = 0usize;
        let mut pending_test = false;
        while i < n {
            let is_hash = sig.get(i).map(|t| t.is_punct('#')).unwrap_or(false);
            if is_hash {
                let mut j = i + 1;
                if sig.get(j).map(|t| t.is_punct('!')).unwrap_or(false) {
                    j += 1; // inner attribute `#![...]`
                }
                if sig.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                    let close = match_bracket(sig, j, '[', ']');
                    for flag in r.in_attr.iter_mut().take(close + 1).skip(i) {
                        *flag = true;
                    }
                    if attr_is_cfg_test(sig, j, close) {
                        pending_test = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            if pending_test {
                let end = item_end(sig, i);
                for flag in r.in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
                pending_test = false;
                i = end + 1;
                continue;
            }
            i += 1;
        }
        r
    }

    /// Marks the function following a `// lint: hot-path` marker at `line`.
    /// Returns false if no function follows the marker.
    fn mark_hot_fn(&mut self, sig: &[&Token], line: usize) -> bool {
        let start = match sig.iter().position(|t| t.line > line) {
            Some(p) => p,
            None => return false,
        };
        // Allow `pub`, attributes, etc. between marker and `fn`, but give up
        // if a whole other construct intervenes (24 tokens is plenty for any
        // signature prefix).
        let fn_idx = match (start..sig.len().min(start + 24))
            .find(|&k| sig.get(k).map(|t| t.is_ident("fn")).unwrap_or(false))
        {
            Some(k) => k,
            None => return false,
        };
        let end = item_end(sig, fn_idx);
        for flag in self.in_hot.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
        true
    }
}

/// Index of the matching `close` for the `open` bracket at `open_idx`
/// (saturating to the last token on malformed input).
fn match_bracket(sig: &[&Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        }
    }
    sig.len().saturating_sub(1)
}

/// True if the attribute tokens in `(open, close)` are a `cfg(...)`
/// containing the ident `test` (covers `cfg(test)`, `cfg(all(test, ...))`).
fn attr_is_cfg_test(sig: &[&Token], open: usize, close: usize) -> bool {
    let mut idents = sig
        .iter()
        .take(close)
        .skip(open + 1)
        .filter(|t| t.kind == TokenKind::Ident);
    match idents.next() {
        Some(first) if first.is_ident("cfg") => idents.any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// End index of the item starting at `start`: the first `;` at zero
/// paren/bracket depth before any body, or the matching `}` of the body.
fn item_end(sig: &[&Token], start: usize) -> usize {
    let mut paren = 0usize;
    let mut bracket = 0usize;
    for (k, t) in sig.iter().enumerate().skip(start) {
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren = paren.saturating_sub(1);
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket = bracket.saturating_sub(1);
        } else if t.is_punct(';') && paren == 0 && bracket == 0 {
            return k;
        } else if t.is_punct('{') && paren == 0 && bracket == 0 {
            return match_bracket(sig, k, '{', '}');
        }
    }
    sig.len().saturating_sub(1)
}

/// Parses a single plain line comment for `lint:` markers, routing each
/// kind to its collector. `fn_markers` collects the lines of markers that
/// must be followed by a function (`buffer-carrier`, `opstats-sink`) for
/// placement validation.
fn parse_marker(
    file: &str,
    tok: &Token,
    allows: &mut Vec<Allow>,
    hot_lines: &mut Vec<usize>,
    fn_markers: &mut Vec<(usize, &'static str)>,
    findings: &mut Vec<Finding>,
) {
    match parse_marker_text(&tok.text) {
        None => {}
        Some(Marker::HotPath) => hot_lines.push(tok.line),
        Some(Marker::Allow(rule)) => allows.push(Allow { rule, line: tok.line }),
        Some(Marker::BufferCarrier) => fn_markers.push((tok.line, "buffer-carrier")),
        Some(Marker::OpstatsSink) => fn_markers.push((tok.line, "opstats-sink")),
        Some(Marker::Deterministic) => fn_markers.push((tok.line, "deterministic")),
        Some(Marker::OrderInsensitive) => fn_markers.push((tok.line, "order-insensitive")),
        Some(Marker::TimingCarrier) => fn_markers.push((tok.line, "timing-carrier")),
        Some(Marker::OrderedMerge) => fn_markers.push((tok.line, "ordered-merge")),
        Some(Marker::Malformed(msg)) => findings.push(Finding {
            rule: Rule::MalformedMarker,
            file: file.to_string(),
            line: tok.line,
            message: msg,
        }),
    }
}

/// True if a `fn` token follows `line` within a plausible signature-prefix
/// distance (same check the hot-path marker uses).
fn fn_follows(sig: &[&Token], line: usize) -> bool {
    let start = match sig.iter().position(|t| t.line > line) {
        Some(p) => p,
        None => return false,
    };
    (start..sig.len().min(start + 24))
        .any(|k| sig.get(k).map(|t| t.is_ident("fn")).unwrap_or(false))
}

/// The core pattern matcher over significant tokens.
fn scan_patterns(
    file: &str,
    sig: &[&Token],
    regions: &Regions,
    scope: Scope,
    findings: &mut Vec<Finding>,
) {
    let mut push = |rule: Rule, line: usize, message: String| {
        findings.push(Finding { rule, file: file.to_string(), line, message });
    };
    let at = |k: usize| sig.get(k).copied();
    let flag = |v: &[bool], k: usize| v.get(k).copied().unwrap_or(false);

    for k in 0..sig.len() {
        let t = match at(k) {
            Some(t) => t,
            None => break,
        };
        let in_test = flag(&regions.in_test, k);
        let in_attr = flag(&regions.in_attr, k);
        let hot = scope.hot_module || flag(&regions.in_hot, k);

        // R3: unsafe anywhere, test code included (forbid is crate-wide).
        if t.is_ident("unsafe") {
            push(Rule::UnsafeCode, t.line, "`unsafe` is forbidden in this workspace (allowlist is empty)".to_string());
            continue;
        }
        if in_test || in_attr {
            continue;
        }

        // R1: allocation in hot paths.
        if hot {
            let next_is = |off: usize, c: char| at(k + off).map(|x| x.is_punct(c)).unwrap_or(false);
            let ident_at = |off: usize, s: &str| at(k + off).map(|x| x.is_ident(s)).unwrap_or(false);
            let path_call = |head: &str, tail: &str| {
                t.is_ident(head) && next_is(1, ':') && next_is(2, ':') && ident_at(3, tail)
            };
            if path_call("Vec", "new") || path_call("Vec", "with_capacity") {
                push(Rule::HotPathAlloc, t.line, format!("`Vec::{}` allocates in a hot path; use the workspace arena", text_of(at(k + 3))));
            } else if path_call("Box", "new") {
                push(Rule::HotPathAlloc, t.line, "`Box::new` allocates in a hot path; use the workspace arena".to_string());
            } else if t.is_ident("vec") && next_is(1, '!') {
                push(Rule::HotPathAlloc, t.line, "`vec![..]` allocates in a hot path; use the workspace arena".to_string());
            } else if t.is_punct('.') && ident_at(1, "collect") && next_is(2, '(') {
                push(Rule::HotPathAlloc, at(k + 1).map(|x| x.line).unwrap_or(t.line), "`.collect()` allocates in a hot path; fill a workspace buffer instead".to_string());
            }
        }

        if !scope.library_code {
            continue;
        }

        // R2: panic surface.
        if t.is_punct('.') {
            let callee = at(k + 1);
            let open = at(k + 2).map(|x| x.is_punct('(')).unwrap_or(false);
            if let Some(c) = callee {
                if open && (c.is_ident("unwrap") || c.is_ident("expect")) {
                    push(Rule::PanicSurface, c.line, format!("`.{}(..)` can panic; propagate a Result or add `// lint: allow(panic-surface) -- <why it cannot fail>`", c.text));
                }
            }
        }
        if (t.is_ident("panic") || t.is_ident("unreachable"))
            && at(k + 1).map(|x| x.is_punct('!')).unwrap_or(false)
        {
            push(Rule::PanicSurface, t.line, format!("`{}!` in library code; return an error instead", t.text));
        }

        // R4: OpStats struct literals outside stats.rs.
        if !scope.opstats_exempt
            && t.is_ident("OpStats")
            && at(k + 1).map(|x| x.is_punct('{')).unwrap_or(false)
        {
            // Walk back over `path::segments` (e.g. `idgnn_sparse::OpStats`)
            // so the context check sees the token before the whole path.
            let mut j = k;
            while j >= 3
                && at(j - 1).map(|x| x.is_punct(':')).unwrap_or(false)
                && at(j - 2).map(|x| x.is_punct(':')).unwrap_or(false)
                && at(j - 3).map(|x| x.kind == TokenKind::Ident).unwrap_or(false)
            {
                j -= 3;
            }
            let prev_blocks = at(j.wrapping_sub(1))
                .filter(|_| j > 0)
                .map(|p| {
                    p.is_ident("for")
                        || p.is_ident("struct")
                        || p.is_ident("enum")
                        || p.is_ident("impl")
                        || p.is_ident("trait")
                        // `fn f() -> OpStats {`: the brace is the fn body,
                        // not a struct literal.
                        || p.is_punct('>')
                })
                .unwrap_or(false);
            if !prev_blocks {
                push(Rule::OpstatsLiteral, t.line, "raw `OpStats { .. }` literal; build counts with `OpStats::counted` (see sparse/src/stats.rs)".to_string());
            }
        }
    }
}

fn text_of(t: Option<&Token>) -> String {
    t.map(|x| x.text.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        lint_tokens("test.rs", &lex(src), Scope::all())
    }

    fn slugs(src: &str) -> Vec<&'static str> {
        run(src).into_iter().map(|f| f.rule.slug()).collect()
    }

    #[test]
    fn unwrap_and_expect_flagged() {
        assert_eq!(slugs("fn f() { x.unwrap(); y.expect(\"boom\"); }"),
                   vec!["panic-surface", "panic-surface"]);
    }

    #[test]
    fn panic_macros_flagged() {
        assert_eq!(slugs("fn f() { panic!(\"no\"); unreachable!() }"),
                   vec!["panic-surface", "panic-surface"]);
    }

    #[test]
    fn bounds_checked_slice_indexing_is_not_flagged() {
        assert!(slugs("fn f(v: &[usize]) -> usize { v[0] + m[i][j] + g()[1] }").is_empty());
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        assert!(slugs("#[derive(Debug)]\nstruct S;").is_empty());
        assert!(slugs("#[doc = \"x.unwrap()\"]\nstruct S;").is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_panic_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); x.expect(\"e\"); panic!(); }\n}";
        assert!(slugs(src).is_empty());
    }

    #[test]
    fn cfg_test_region_ends_at_matching_brace() {
        let src = "#[cfg(test)]\nmod tests { }\nfn f() { x.unwrap(); }";
        assert_eq!(slugs(src), vec!["panic-surface"]);
    }

    #[test]
    fn unsafe_flagged_even_in_test_code() {
        let src = "#[cfg(test)]\nmod tests { fn t() { unsafe { } } }";
        assert_eq!(slugs(src), vec!["unsafe-code"]);
    }

    #[test]
    fn hot_path_marker_gates_alloc_rules() {
        let clean = "fn f() { let v = Vec::new(); }";
        assert!(slugs(clean).is_empty()); // not marked, not a hot module
        let hot = "// lint: hot-path\nfn f() { let v = Vec::new(); }";
        assert_eq!(slugs(hot), vec!["hot-path-alloc"]);
    }

    #[test]
    fn hot_module_scope_flags_all_alloc_patterns() {
        let src = "fn f() { let a = Vec::with_capacity(4); let b = vec![0; 4];\n\
                   let c: Vec<u8> = it.collect(); let d = Box::new(3); }";
        let scope = Scope { hot_module: true, library_code: false, opstats_exempt: false };
        let found = lint_tokens("hot.rs", &lex(src), scope);
        assert_eq!(found.len(), 4);
        assert!(found.iter().all(|f| f.rule == Rule::HotPathAlloc));
    }

    #[test]
    fn hot_marker_region_ends_with_function() {
        let src = "// lint: hot-path\nfn hot() { }\nfn cold() { let v = Vec::new(); }";
        assert!(slugs(src).is_empty());
    }

    #[test]
    fn opstats_literal_flagged_outside_stats_rs() {
        assert_eq!(slugs("fn f() { let s = OpStats { mults: 1, adds: 2 }; }"),
                   vec!["opstats-literal"]);
        // ... but impl/struct headers and return types are not literals.
        assert!(slugs("impl Add for OpStats { }").is_empty());
        assert!(slugs("pub struct OpStats { }").is_empty());
        assert!(slugs("fn total() -> OpStats { helper() }").is_empty());
        assert!(slugs("fn total() -> idgnn_sparse::OpStats { helper() }").is_empty());
        // Qualified literals in expression position are still literals.
        assert_eq!(
            slugs("fn f() { let s = idgnn_sparse::OpStats { mults: 1, adds: 2 }; }"),
            vec!["opstats-literal"]
        );
    }

    #[test]
    fn allow_marker_with_reason_suppresses_same_and_next_line() {
        let src = "// lint: allow(panic-surface) -- checked non-empty above\n\
                   fn f() { v.unwrap(); }";
        assert!(slugs(src).is_empty());
        let same_line = "fn f() { v.unwrap(); } // lint: allow(panic-surface) -- checked";
        assert!(slugs(same_line).is_empty());
    }

    #[test]
    fn allow_marker_without_reason_is_malformed_and_inert() {
        let src = "// lint: allow(panic-surface)\nfn f() { v.unwrap(); }";
        let got = slugs(src);
        assert!(got.contains(&"malformed-marker"));
        assert!(got.contains(&"panic-surface"));
    }

    #[test]
    fn allow_marker_with_unknown_rule_is_malformed() {
        let src = "// lint: allow(made-up-rule) -- because\nfn f() {}";
        assert_eq!(slugs(src), vec!["malformed-marker"]);
    }

    #[test]
    fn retired_contract_markers_are_malformed_and_do_not_lift_unsafe() {
        let src = "// lint: certified(demo) -- proven elsewhere\n\
                   fn f() { unsafe { } }";
        assert_eq!(slugs(src), vec!["malformed-marker", "unsafe-code"]);
        for marker in ["requires(in-len(i, s))", "ensures(spa-width(ws, b))", "invariant(col-in-bounds)"] {
            assert_eq!(slugs(&format!("// lint: {marker}\nfn f() {{}}")), vec!["malformed-marker"]);
        }
    }

    #[test]
    fn hot_path_marker_without_function_is_malformed() {
        assert_eq!(slugs("// lint: hot-path\nstatic X: u8 = 0;"), vec!["malformed-marker"]);
    }

    #[test]
    fn markers_inside_strings_and_doc_comments_are_inert() {
        // A marker in a doc comment must not mark the fn hot; a violation
        // string must not trigger; an allow in a string must not suppress.
        let src = "/// lint: hot-path\nfn f() { let v = Vec::new(); }";
        assert!(slugs(src).is_empty());
        let s2 = "fn f() { let m = \"// lint: allow(panic-surface) -- no\"; v.unwrap(); }";
        assert_eq!(slugs(s2), vec!["panic-surface"]);
    }

    #[test]
    fn suppression_does_not_leak_past_next_line() {
        let src = "// lint: allow(panic-surface) -- only here\nfn f() {\n    v.unwrap();\n}";
        // marker line 1 covers lines 1-2; the unwrap is on line 3.
        assert_eq!(slugs(src), vec!["panic-surface"]);
    }
}
