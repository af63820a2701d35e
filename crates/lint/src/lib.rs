//! # idgnn-lint
//!
//! In-repo static analysis for the I-DGNN workspace: a hand-rolled Rust
//! token scanner ([`lexer`]) and lightweight item parser ([`parser`])
//! feeding both token-level rules ([`rules`]) and cross-file semantic
//! rules over a workspace symbol graph ([`symgraph`], [`flows`],
//! [`hwbudget`]) that `cargo clippy` cannot express at the granularity
//! this codebase needs:
//!
//! * `hot-path-alloc` — the sparse kernels' inner loops
//!   (`sparse/src/{ops,parallel,simd}.rs` and any `// lint: hot-path`
//!   function) must not allocate; they go through the workspace arena.
//! * `panic-surface` — library code must not `unwrap`/`expect`/`panic!`/
//!   `unreachable!`; test code, benches, and binaries may. Slice indexing
//!   is bounds-checked and not flagged.
//! * `unsafe-code` — no `unsafe` anywhere (empty allowlist), plus manifest
//!   checks that every crate opts into the workspace `unsafe_code = "forbid"`.
//! * `opstats-literal` — exact-op accounting may only be constructed via
//!   `OpStats::counted` in `sparse/src/stats.rs`.
//! * `resource-flow` — pooled `Workspace` buffers acquired in idgnn-sparse
//!   must reach a recycle path (or a documented `buffer-carrier` move) on
//!   every return path, checked over the cross-crate call graph.
//! * `opstats-flow` — every public stats-returning kernel must share a
//!   transitive caller with an `opstats-sink` accounting entry point.
//! * `hw-budget` — the shipped `AcceleratorConfig` must satisfy the static
//!   Eqs. 16–22 tile/schedule budgets for every Table-I dataset shape.
//! * the **determinism family** (`unordered-iteration`,
//!   `float-reduction-order`, `ambient-nondeterminism`,
//!   `block-merge-order`) — no unordered-container iteration, unpinned
//!   float accumulation, wall-clock/thread/env reads, or unaudited thread
//!   fan-out on any path that feeds an `OpStats` kernel, a JSON emitter,
//!   or a `// lint: deterministic` root; built on the per-statement
//!   def/use engine in [`dataflow`]. See DESIGN.md §15.
//!
//! Any finding fails CI (the workspace holds at zero); run
//! `idgnn-lint --explain <rule>` for each rule's rationale. See
//! DESIGN.md §10–§11 for the full policy, suppression syntax, and the
//! relationship to the `strict-invariants` runtime feature.

pub mod dataflow;
pub mod driver;
pub mod flows;
pub mod hwbudget;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symgraph;

pub use driver::{classify, find_workspace_root, lint_source, lint_workspace, WorkspaceRun};
pub use rules::{Finding, Rule, Scope};
pub use symgraph::SymbolGraph;
