//! Cross-crate symbol table and call graph over [`crate::parser`] items.
//!
//! Resolution is **name-based with impl-type hints**. A call site
//! `foo(...)` adds an edge to every function named `foo` in the workspace.
//! A method call `.foo(...)` adds one to every `foo` defined inside an
//! `impl` or `trait` body and never to a free fn of that name, which
//! method syntax cannot reach (so a free `fn collect` does not capture
//! every iterator's `.collect()`). Both narrow further when the receiver's
//! type is known. When the
//! receiver is a plain identifier whose type the parser recovered (a typed
//! parameter, a `let x: T` / `let x = T::new()` binding, or `self` inside
//! an `impl T`), and some `impl T` actually defines a method of that name,
//! the edge set is restricted to those `(T, foo)` methods. Path-qualified
//! calls (`T::foo(..)`, `Self::foo(..)`) get the same treatment. In every
//! other case — field chains, call results, shadowed or generic receivers,
//! types the hint machinery cannot see — resolution falls back to the
//! name-based over-approximation, which can only add edges, never miss one
//! whose callee is a parsed `fn`. That is the safe direction for the
//! reachability rules built on top:
//!
//! * `opstats-flow` asks "does some accounting join point reach this
//!   kernel?" — extra edges can only make a kernel *easier* to prove
//!   accounted, so a **finding** (unreachable kernel) is always real.
//! * `resource-flow` asks "does this function (transitively) hand its
//!   pooled buffers to a resolver?" — extra edges can mask a leak but
//!   never invent one, so its findings are also never false positives
//!   at the graph level.
//!
//! The determinism family runs the other way: an extra edge can put an
//! unrelated fn on a deterministic path and raise a false finding, which is
//! why method calls skip free fns.
//!
//! When the imprecision hides a true positive, the seeded fixtures in
//! `tests/fixtures/` keep the rule logic itself honest.

use std::collections::{BTreeMap, BTreeSet};

use crate::parser::{Call, FnItem, ParsedFile};

/// A function node in the workspace graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate name inferred from the path (`crates/<dir>` → `<dir>`).
    pub krate: String,
    /// The parsed item.
    pub item: FnItem,
}

/// Symbol table + call graph for one workspace scan.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// All function nodes, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// name → node indices (resolution map).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, method name) → node indices (hint-restricted map).
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// Forward edges: caller index → callee indices (deduped, sorted).
    pub calls: Vec<Vec<usize>>,
    /// Reverse edges: callee index → caller indices.
    pub callers: Vec<Vec<usize>>,
}

/// Recovers the receiver type of a call site from the enclosing function's
/// hints, or `None` when resolution must fall back to name matching.
///
/// * `self.m(..)` → the enclosing `impl` type;
/// * `x.m(..)` → the *last* `let x: T` / `let x = T::..` hint in the body
///   (last wins so re-bindings lean toward the binding nearest the call),
///   else the declared type of parameter `x`;
/// * `T::m(..)` / `Self::m(..)` → the path's final uppercase-initial
///   segment (`Self` resolving to the enclosing `impl` type).
fn receiver_type(item: &FnItem, call: &Call) -> Option<String> {
    if call.method {
        let recv = call.recv.as_deref()?;
        if recv == "self" {
            return item.impl_of.clone();
        }
        if let Some((_, ty)) = item.let_types.iter().rev().find(|(n, _)| n == recv) {
            return Some(ty.clone());
        }
        let (_, tys) = item.params.iter().find(|(n, _)| n == recv)?;
        tys.first().cloned()
    } else {
        let last = call.path.last()?;
        if last == "Self" {
            return item.impl_of.clone();
        }
        if last.chars().next().is_some_and(char::is_uppercase) {
            return Some(last.clone());
        }
        None
    }
}

/// Infers the crate name from a workspace-relative path:
/// `crates/sparse/src/ops.rs` → `sparse`; anything else keeps its first
/// path component (fixtures and ad-hoc files become their own "crate").
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some(first) => first.to_string(),
        None => "unknown".to_string(),
    }
}

impl SymbolGraph {
    /// Builds the graph from parsed files. Test items (`#[cfg(test)]`,
    /// `#[test]`) are kept as nodes but excluded from name resolution, so
    /// test-only plumbing neither accounts a kernel nor resolves a buffer.
    pub fn build(files: &[ParsedFile]) -> Self {
        let mut g = SymbolGraph::default();
        for pf in files {
            let krate = crate_of(&pf.rel);
            for item in &pf.fns {
                g.fns.push(FnNode { file: pf.rel.clone(), krate: krate.clone(), item: item.clone() });
            }
        }
        for (idx, node) in g.fns.iter().enumerate() {
            if node.item.in_test {
                continue;
            }
            g.by_name.entry(node.item.name.clone()).or_default().push(idx);
            if let Some(ty) = &node.item.impl_of {
                g.by_impl
                    .entry((ty.clone(), node.item.name.clone()))
                    .or_default()
                    .push(idx);
            }
        }
        g.calls = vec![Vec::new(); g.fns.len()];
        g.callers = vec![Vec::new(); g.fns.len()];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (caller, node) in g.fns.iter().enumerate() {
            for call in &node.item.calls {
                let hinted = receiver_type(&node.item, call)
                    .and_then(|ty| g.by_impl.get(&(ty, call.name.clone())));
                if let Some(callees) = hinted.or_else(|| g.by_name.get(&call.name)) {
                    for &callee in callees {
                        // `.foo()` can only reach a method, never a free fn.
                        let item = g.fns.get(callee).map(|n| &n.item);
                        if call.method && item.is_some_and(|c| c.impl_of.is_none() && !c.in_trait) {
                            continue;
                        }
                        edges.push((caller, callee));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for (caller, callee) in edges {
            if let Some(row) = g.calls.get_mut(caller) {
                row.push(callee);
            }
            if let Some(row) = g.callers.get_mut(callee) {
                row.push(caller);
            }
        }
        g
    }

    /// Node indices of all functions with this name (non-test only).
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forward transitive closure from `seeds` (following caller→callee
    /// edges), including the seeds themselves.
    pub fn reachable_from(&self, seeds: &[usize]) -> BTreeSet<usize> {
        self.closure(seeds, &self.calls)
    }

    /// Reverse transitive closure from `seeds` (following callee→caller
    /// edges), including the seeds themselves.
    pub fn callers_of(&self, seeds: &[usize]) -> BTreeSet<usize> {
        self.closure(seeds, &self.callers)
    }

    fn closure(&self, seeds: &[usize], edges: &[Vec<usize>]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = seeds.iter().copied().collect();
        let mut work: Vec<usize> = seeds.to_vec();
        while let Some(n) = work.pop() {
            if let Some(nexts) = edges.get(n) {
                for &m in nexts {
                    if seen.insert(m) {
                        work.push(m);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(srcs: &[(&str, &str)]) -> SymbolGraph {
        let files: Vec<ParsedFile> =
            srcs.iter().map(|(rel, src)| parse(rel, &lex(src))).collect();
        SymbolGraph::build(&files)
    }

    fn idx(g: &SymbolGraph, name: &str) -> usize {
        g.named(name).first().copied().unwrap_or(usize::MAX)
    }

    #[test]
    fn crate_inference() {
        assert_eq!(crate_of("crates/sparse/src/ops.rs"), "sparse");
        assert_eq!(crate_of("crates/lint/src/main.rs"), "lint");
        assert_eq!(crate_of("fixture.rs"), "fixture.rs");
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub fn entry() { kernel(); }"),
            ("crates/b/src/lib.rs", "pub fn kernel() { leaf(); } fn leaf() {}"),
        ]);
        let entry = idx(&g, "entry");
        let reach = g.reachable_from(&[entry]);
        assert!(reach.contains(&idx(&g, "kernel")));
        assert!(reach.contains(&idx(&g, "leaf")));
    }

    #[test]
    fn reverse_closure_finds_callers() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); } fn mid() { bottom(); } fn bottom() {} fn other() {}",
        )]);
        let callers = g.callers_of(&[idx(&g, "bottom")]);
        assert!(callers.contains(&idx(&g, "mid")));
        assert!(callers.contains(&idx(&g, "top")));
        assert!(!callers.contains(&idx(&g, "other")));
    }

    #[test]
    fn test_fns_do_not_resolve() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn kernel() {} #[cfg(test)] mod tests { fn kernel() {} fn driver() { kernel(); } }",
        )]);
        // Only the library `kernel` resolves; the test driver's call edge
        // points at the library node, and the test copy has no name entry.
        assert_eq!(g.named("kernel").len(), 1);
        assert!(g.named("driver").is_empty());
    }

    #[test]
    fn method_calls_resolve_to_all_same_named_fns() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "impl W { pub fn recycle(&mut self) {} }"),
            ("crates/b/src/lib.rs", "fn f(w: &mut W) { w.recycle(); }"),
        ]);
        let f = idx(&g, "f");
        assert!(g.reachable_from(&[f]).contains(&idx(&g, "recycle")));
    }

    /// The PR-9 conflation fix: two `fn merge` in different impls used to
    /// cross-link every `.merge()` call site; a typed receiver now picks
    /// exactly its own impl's method.
    #[test]
    fn typed_receivers_do_not_conflate_same_named_methods() {
        let srcs = [
            ("crates/a/src/lib.rs", "pub struct Left; impl Left { pub fn merge(&self) { left_leaf(); } } pub fn left_leaf() {}"),
            ("crates/b/src/lib.rs", "pub struct Right; impl Right { pub fn merge(&self) { right_leaf(); } } pub fn right_leaf() {}"),
            (
                "crates/c/src/lib.rs",
                "pub fn via_param(l: &Left) { l.merge(); } \
                 pub fn via_let() { let r = Right::fresh(); r.merge(); } \
                 pub fn via_let_ty() { let l: Left = make(); l.merge(); }",
            ),
        ];
        let g = graph(&srcs);
        let left = g.named("merge").iter().copied().find(|&i| g.fns[i].krate == "a").unwrap();
        let right = g.named("merge").iter().copied().find(|&i| g.fns[i].krate == "b").unwrap();
        let via_param = g.reachable_from(&[idx(&g, "via_param")]);
        assert!(via_param.contains(&left) && !via_param.contains(&right));
        let via_let = g.reachable_from(&[idx(&g, "via_let")]);
        assert!(via_let.contains(&right) && !via_let.contains(&left));
        let via_let_ty = g.reachable_from(&[idx(&g, "via_let_ty")]);
        assert!(via_let_ty.contains(&left) && !via_let_ty.contains(&right));
    }

    /// Untyped receivers (call results, field chains) keep the documented
    /// over-approximation: edges to every same-named method.
    #[test]
    fn unhinted_receivers_fall_back_to_name_resolution() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "pub struct Left; impl Left { pub fn merge(&self) {} }"),
            ("crates/b/src/lib.rs", "pub struct Right; impl Right { pub fn merge(&self) {} }"),
            ("crates/c/src/lib.rs", "pub fn untyped() { pick().merge(); } fn pick() {}"),
        ]);
        let reach = g.reachable_from(&[idx(&g, "untyped")]);
        for &m in g.named("merge") {
            assert!(reach.contains(&m), "fallback must keep every candidate");
        }
    }

    /// `self.m()` and `Self::m()` resolve through the enclosing impl.
    #[test]
    fn self_calls_resolve_through_enclosing_impl() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub struct A; impl A { pub fn go(&self) { self.step(); Self::assoc(); } \
                 fn step(&self) {} fn assoc() {} }",
            ),
            ("crates/b/src/lib.rs", "pub struct B; impl B { pub fn step(&self) {} pub fn assoc() {} }"),
        ]);
        let reach = g.reachable_from(&[idx(&g, "go")]);
        let a_step = g.named("step").iter().copied().find(|&i| g.fns[i].krate == "a").unwrap();
        let b_step = g.named("step").iter().copied().find(|&i| g.fns[i].krate == "b").unwrap();
        assert!(reach.contains(&a_step) && !reach.contains(&b_step));
        let b_assoc = g.named("assoc").iter().copied().find(|&i| g.fns[i].krate == "b").unwrap();
        assert!(!reach.contains(&b_assoc));
    }
}
