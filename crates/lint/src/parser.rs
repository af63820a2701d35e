//! A lightweight item parser on top of [`crate::lexer`].
//!
//! This is deliberately *not* a full Rust grammar: it recovers just enough
//! structure for cross-file semantic rules — which functions exist (with
//! module path, `impl` owner, visibility, and return-type idents), which
//! functions they call, and which items live under `#[cfg(test)]`. The
//! symbol graph in [`crate::symgraph`] is built from these items.
//!
//! Robustness contract (same as the lexer): the parser never panics and
//! never rejects input. Unparseable constructs degrade to "no item here";
//! the workspace smoke test in `tests/parser_workspace.rs` parses every
//! `.rs` file in the repo to keep that contract honest.
//!
//! Known, accepted approximations:
//!
//! * Call resolution is name-based (see [`crate::symgraph`]); the parser
//!   only records call *sites* (last path segment + method-call flag).
//! * A nested `fn` is parsed as its own item, but its calls are *also*
//!   attributed to the enclosing function — a safe over-approximation for
//!   reachability-style rules.
//! * `impl` type names take the last path segment before the body brace
//!   (cut at `where`), which is exact for every `impl` in this workspace.

use crate::lexer::{Token, TokenKind};

/// Function visibility, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub` at all.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`.
    Restricted,
    /// Plain `pub`.
    Public,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Last path segment of the callee (`recycle` for `workspace::recycle`).
    pub name: String,
    /// Leading path segments, if the call was path-qualified.
    pub path: Vec<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// For method calls, the identifier the receiver chain starts from
    /// (`w` for `w.recycle(..)`, `self` for `self.merge(..)`); `None` when
    /// the receiver is not a plain identifier (e.g. a call result).
    pub recv: Option<String>,
    /// 1-based source line of the callee token.
    pub line: usize,
}

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// Enclosing in-file module path (e.g. `["tests"]`).
    pub module: Vec<String>,
    /// Enclosing `impl` type name, if any.
    pub impl_of: Option<String>,
    /// True inside a `trait` body (declarations and default methods).
    pub in_trait: bool,
    /// Visibility of the `fn` itself.
    pub vis: Vis,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True if the item sits under `#[cfg(test)]` or is `#[test]`-attributed.
    pub in_test: bool,
    /// Identifier tokens of the return type, in order (empty for `()`).
    pub ret: Vec<String>,
    /// Token-index range `(open, close)` of the body braces in the file's
    /// token stream; `None` for bodyless trait/extern declarations.
    pub body: Option<(usize, usize)>,
    /// Call sites found in the body (including nested closures/fns).
    pub calls: Vec<Call>,
    /// 1-based lines of `?` early-return operators in the body.
    pub tries: Vec<usize>,
    /// Parameters as `(name, type idents)` pairs — the type side keeps every
    /// identifier in declaration order (`m: &HashMap<usize, f32>` yields
    /// `("m", ["HashMap", "usize", "f32"])`). `self` receivers are skipped.
    pub params: Vec<(String, Vec<String>)>,
    /// Local type hints from `let` bindings in the body: `let x: T = ..`
    /// and `let x = T::new(..)` both record `("x", "T")`, in source order.
    pub let_types: Vec<(String, String)>,
}

impl FnItem {
    /// `module::Type::name` display path (file-local).
    pub fn qual_name(&self) -> String {
        let mut parts: Vec<&str> = self.module.iter().map(String::as_str).collect();
        if let Some(ty) = &self.impl_of {
            parts.push(ty.as_str());
        }
        parts.push(self.name.as_str());
        parts.join("::")
    }
}

/// A `struct` / `enum` / `trait` definition (symbol-table entry only).
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// The type name.
    pub name: String,
    /// Which keyword introduced it (`"struct"`, `"enum"`, `"trait"`).
    pub kind: String,
    /// 1-based line of the introducing keyword.
    pub line: usize,
}

/// A `use` declaration, flattened to its token text.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The use path as written, tokens joined without spaces.
    pub path: String,
    /// 1-based line of the `use` keyword.
    pub line: usize,
}

/// Everything the parser recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (as passed in).
    pub rel: String,
    /// All function items, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Type definitions.
    pub types: Vec<TypeItem>,
    /// Use declarations.
    pub uses: Vec<UseItem>,
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "unsafe", "move", "in", "as", "let",
    "else", "break", "continue", "ref", "mut", "dyn", "impl", "where", "pub", "use", "mod",
    "struct", "enum", "trait", "type", "const", "static", "extern", "async", "await",
];

/// Scope frame opened by a `{`.
#[derive(Debug, Clone)]
enum Frame {
    /// `mod name {` — contributes to the module path; `test` marks
    /// `#[cfg(test)] mod`.
    Mod { name: String, test: bool },
    /// `impl Type {` — contributes the owner type.
    Impl { ty: String },
    /// `trait Name {` — its fns can be reached by method-call syntax.
    Trait,
    /// Any other brace (fn body, block expression, struct body, match arm).
    Block,
}

/// What the token immediately before a prospective item tells us.
#[derive(Debug, Clone, Default)]
struct Pending {
    cfg_test: bool,
    test_attr: bool,
}

/// Parses one lexed file into items. Never panics; unparseable regions are
/// skipped token by token.
pub fn parse(rel: &str, tokens: &[Token]) -> ParsedFile {
    // Indices of significant (non-comment) tokens.
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let mut out = ParsedFile { rel: rel.to_string(), ..ParsedFile::default() };
    let mut frames: Vec<Frame> = Vec::new();
    let mut pending = Pending::default();
    let mut i = 0usize;
    while i < sig.len() {
        let Some(tok) = sig.get(i).and_then(|&j| tokens.get(j)) else { break };
        // Attributes: skip `#[...]` / `#![...]` wholesale, remembering
        // `cfg(test)` / `test` so the next item can be marked.
        if tok.is_punct('#') {
            let after_bang =
                if peek(tokens, &sig, i + 1).is_some_and(|t| t.is_punct('!')) { i + 2 } else { i + 1 };
            if peek(tokens, &sig, after_bang).is_some_and(|t| t.is_punct('[')) {
                let close = match_delim(tokens, &sig, after_bang, '[', ']');
                let mut saw_cfg = false;
                for k in after_bang..close {
                    if let Some(t) = peek(tokens, &sig, k) {
                        if t.is_ident("cfg") {
                            saw_cfg = true;
                        } else if t.is_ident("test") || t.is_ident("bench") {
                            if saw_cfg {
                                pending.cfg_test = true;
                            } else {
                                pending.test_attr = true;
                            }
                        }
                    }
                }
                i = close + 1;
                continue;
            }
        }
        if tok.kind == TokenKind::Ident {
            match tok.text.as_str() {
                "mod" => {
                    // `mod name {` opens a frame; `mod name;` is external.
                    let name = peek(tokens, &sig, i + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone());
                    if let Some(name) = name {
                        if peek(tokens, &sig, i + 2).is_some_and(|t| t.is_punct('{')) {
                            let test = pending.cfg_test
                                || frames.iter().any(|f| matches!(f, Frame::Mod { test: true, .. }));
                            frames.push(Frame::Mod { name, test });
                            pending = Pending::default();
                            i += 3;
                            continue;
                        }
                    }
                    pending = Pending::default();
                    i += 1;
                    continue;
                }
                "impl" => {
                    if let Some((ty, open)) = parse_impl_header(tokens, &sig, i) {
                        frames.push(Frame::Impl { ty });
                        pending = Pending::default();
                        i = open + 1;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                "struct" | "enum" | "trait" => {
                    if let Some(name) = peek(tokens, &sig, i + 1).filter(|t| t.kind == TokenKind::Ident)
                    {
                        out.types.push(TypeItem {
                            name: name.text.clone(),
                            kind: tok.text.clone(),
                            line: tok.line,
                        });
                    }
                    pending = Pending::default();
                    if tok.is_ident("trait") {
                        if let Some(open) = header_open(tokens, &sig, i) {
                            frames.push(Frame::Trait);
                            i = open + 1;
                            continue;
                        }
                    }
                    i += 1;
                    continue;
                }
                "use" => {
                    let mut path = String::new();
                    let mut k = i + 1;
                    while let Some(t) = peek(tokens, &sig, k) {
                        if t.is_punct(';') {
                            break;
                        }
                        path.push_str(&t.text);
                        k += 1;
                    }
                    out.uses.push(UseItem { path, line: tok.line });
                    pending = Pending::default();
                    i = k + 1;
                    continue;
                }
                "fn" => {
                    if let Some((item, next)) = parse_fn(tokens, &sig, i, &frames, &pending) {
                        out.fns.push(item);
                        pending = Pending::default();
                        // Continue *inside* the signature so nested fns and
                        // scope braces are still visited.
                        i = next;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }
        if tok.is_punct('{') {
            frames.push(Frame::Block);
        } else if tok.is_punct('}') {
            frames.pop();
        }
        if !tok.is_punct('#') {
            pending = Pending::default();
        }
        i += 1;
    }
    collect_calls(tokens, &sig, &mut out.fns);
    out
}

/// Significant-token lookup: `peek(tokens, sig, i)` is the `i`-th
/// non-comment token.
fn peek<'a>(tokens: &'a [Token], sig: &[usize], i: usize) -> Option<&'a Token> {
    sig.get(i).and_then(|&j| tokens.get(j))
}

/// Index (in `sig`) of the `close` delimiter matching the `open` at `start`
/// (which must sit on the opener). Returns `start` if unmatched (caller
/// advances past it).
fn match_delim(tokens: &[Token], sig: &[usize], start: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut k = start;
    while let Some(t) = peek(tokens, sig, k) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    start
}

/// Parses an `impl` header starting at `sig[i]` (the `impl` ident). Returns
/// the owner type name and the sig-index of the opening `{`.
/// Index of the body `{` of the `impl`/`trait` header starting at `sig[i]`.
/// Such headers never contain braces (where clauses bound by traits only);
/// the search stops at `;` (`trait T = ..;` aliases) or end of file.
fn header_open(tokens: &[Token], sig: &[usize], i: usize) -> Option<usize> {
    let mut k = i + 1;
    while let Some(t) = peek(tokens, sig, k) {
        if t.is_punct('{') {
            return Some(k);
        }
        if t.is_punct(';') {
            return None;
        }
        k += 1;
    }
    None
}

fn parse_impl_header(tokens: &[Token], sig: &[usize], i: usize) -> Option<(String, usize)> {
    let open = header_open(tokens, sig, i)?;
    // Skip the `<...>` generics section right after `impl`, so parameter
    // names don't shadow the owner type. `->` inside `Fn() -> T` bounds
    // must not close the angle depth.
    let mut start = i + 1;
    if peek(tokens, sig, start).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0usize;
        let mut k = start;
        while k < open {
            if let Some(t) = peek(tokens, sig, k) {
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>')
                    && !peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_punct('-'))
                {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        start = k + 1;
                        break;
                    }
                }
            }
            k += 1;
        }
        if depth != 0 {
            start = i + 1; // unmatched: fall back to scanning everything
        }
    }
    // Idents between `impl` and `{`, cut at `where`; if a `for` is present
    // the owner type follows it.
    let mut idents: Vec<&Token> = Vec::new();
    let mut after_for = None;
    for k in start..open {
        if let Some(t) = peek(tokens, sig, k) {
            if t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                after_for = Some(idents.len());
                continue;
            }
            if t.kind == TokenKind::Ident {
                idents.push(t);
            }
        }
    }
    let owner_slice: &[&Token] = match after_for {
        Some(cut) => idents.get(cut..).unwrap_or(&[]),
        None => idents.as_slice(),
    };
    // First ident of the owner path that is not a generic parameter
    // re-mention: in practice the first ident after `for` (or after the
    // generics) is the type path head; its last `::` segment is what the
    // symbol graph uses, so take the *first* ident and then extend across
    // `::` — approximated by simply taking the first owner ident.
    let ty = owner_slice.first().map(|t| t.text.clone()).unwrap_or_default();
    if ty.is_empty() {
        return None;
    }
    Some((ty, open))
}

/// Parses one `fn` item starting at `sig[i]` (the `fn` ident). Returns the
/// item and the sig-index to resume scanning from (just past the fn name,
/// so the body is still walked for frames and nested items).
fn parse_fn(
    tokens: &[Token],
    sig: &[usize],
    i: usize,
    frames: &[Frame],
    pending: &Pending,
) -> Option<(FnItem, usize)> {
    let fn_tok = peek(tokens, sig, i)?;
    let name_tok = peek(tokens, sig, i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(` type position, e.g. `Fn(usize)`
    }
    let vis = visibility(tokens, sig, i);
    // Scan the signature: track () [] depth; at depth 0 a `{` opens the
    // body and a `;` ends a bodyless declaration. Collect return-type
    // idents after a top-level `->`, and remember the parameter-list parens
    // (the first top-level `(` group) for [`parse_params`].
    let mut ret = Vec::new();
    let mut in_ret = false;
    let mut depth = 0usize;
    let mut body = None;
    let mut params_open = None;
    let mut k = i + 2;
    while let Some(t) = peek(tokens, sig, k) {
        if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 && t.is_punct('(') && params_open.is_none() {
                params_open = Some(k);
            }
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(';') {
            break;
        } else if depth == 0 && t.is_punct('{') {
            let close = match_delim(tokens, sig, k, '{', '}');
            let open_idx = sig.get(k).copied()?;
            let close_idx = sig.get(close).copied().unwrap_or(open_idx);
            body = Some((open_idx, close_idx));
            break;
        } else if t.is_punct('>')
            && peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_punct('-'))
        {
            in_ret = true;
        } else if in_ret && t.is_ident("where") {
            in_ret = false;
        } else if in_ret && t.kind == TokenKind::Ident {
            ret.push(t.text.clone());
        }
        k += 1;
    }
    let module: Vec<String> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Mod { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    let impl_of = frames.iter().rev().find_map(|f| match f {
        Frame::Impl { ty } => Some(ty.clone()),
        _ => None,
    });
    let in_trait = frames.iter().any(|f| matches!(f, Frame::Trait));
    let in_test = pending.cfg_test
        || pending.test_attr
        || frames.iter().any(|f| matches!(f, Frame::Mod { test: true, .. }));
    let params = match params_open {
        Some(open) => parse_params(tokens, sig, open),
        None => Vec::new(),
    };
    let item = FnItem {
        name: name_tok.text.clone(),
        module,
        impl_of,
        in_trait,
        vis,
        line: fn_tok.line,
        in_test,
        ret,
        body,
        calls: Vec::new(),
        tries: Vec::new(),
        params,
        let_types: Vec::new(),
    };
    Some((item, i + 2))
}

/// Qualifier idents that appear on the type side of a parameter but are not
/// type names.
const NON_TYPE_IDENTS: &[&str] = &["mut", "dyn", "impl", "ref", "const", "fn", "as", "where"];

/// Parses the parameter list whose opening `(` sits at `sig[open]` into
/// `(name, type idents)` pairs. Splits at commas outside nested `()`/`[]`/
/// `<>`; each segment's name is the last ident before its top-level `:`
/// (skipping `self` receivers), the type side keeps every ident in order.
fn parse_params(tokens: &[Token], sig: &[usize], open: usize) -> Vec<(String, Vec<String>)> {
    let close = match_delim(tokens, sig, open, '(', ')');
    let mut out = Vec::new();
    let mut seg_start = open + 1;
    let mut paren = 0usize;
    let mut angle = 0usize;
    let mut k = open + 1;
    while k <= close {
        let boundary = k == close;
        let t = peek(tokens, sig, k);
        if let Some(t) = t {
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                if k < close {
                    paren = paren.saturating_sub(1);
                }
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>')
                && !peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_punct('-'))
            {
                angle = angle.saturating_sub(1);
            }
        }
        if boundary || (paren == 0 && angle == 0 && t.is_some_and(|t| t.is_punct(','))) {
            if let Some(param) = parse_param_segment(tokens, sig, seg_start, k) {
                out.push(param);
            }
            seg_start = k + 1;
        }
        k += 1;
    }
    out
}

/// One comma-separated parameter segment `sig[start..end]` → `(name, types)`.
fn parse_param_segment(
    tokens: &[Token],
    sig: &[usize],
    start: usize,
    end: usize,
) -> Option<(String, Vec<String>)> {
    // Locate the top-level `:` (skip `::` path separators).
    let mut colon = None;
    let mut k = start;
    while k < end {
        let t = peek(tokens, sig, k)?;
        if t.is_punct(':') {
            let double = peek(tokens, sig, k + 1).is_some_and(|n| n.is_punct(':'))
                || peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'));
            if !double {
                colon = Some(k);
                break;
            }
        }
        k += 1;
    }
    let colon = colon?;
    let name = (start..colon)
        .rev()
        .filter_map(|k| peek(tokens, sig, k))
        .find(|t| t.kind == TokenKind::Ident && !NON_TYPE_IDENTS.contains(&t.text.as_str()))?;
    if name.text == "self" {
        return None;
    }
    let types: Vec<String> = (colon + 1..end)
        .filter_map(|k| peek(tokens, sig, k))
        .filter(|t| t.kind == TokenKind::Ident && !NON_TYPE_IDENTS.contains(&t.text.as_str()))
        .map(|t| t.text.clone())
        .collect();
    Some((name.text.clone(), types))
}

/// Determines the visibility of the fn whose `fn` keyword sits at `sig[i]`
/// by scanning backwards over qualifier tokens.
fn visibility(tokens: &[Token], sig: &[usize], i: usize) -> Vis {
    let mut k = i;
    // Walk back over `const`, `async`, `unsafe`, `extern "C"`, and the
    // `(crate)`-style restriction tokens; stop at anything else.
    while k > 0 {
        k -= 1;
        let Some(t) = peek(tokens, sig, k) else { break };
        match t.kind {
            TokenKind::Ident => match t.text.as_str() {
                "const" | "async" | "unsafe" | "extern" | "default" | "crate" | "super" | "in"
                | "self" => continue,
                "pub" => {
                    let restricted =
                        peek(tokens, sig, k + 1).is_some_and(|n| n.is_punct('('));
                    return if restricted { Vis::Restricted } else { Vis::Public };
                }
                _ => return Vis::Private,
            },
            TokenKind::Str => continue, // extern "C"
            TokenKind::Punct if t.is_punct('(') || t.is_punct(')') => continue,
            _ => return Vis::Private,
        }
    }
    Vis::Private
}

/// Second pass: records call sites inside each fn body. Nested fn bodies
/// contribute to the outer fn as well (documented over-approximation).
/// Also collects the `let`-binding type hints the method-call resolver and
/// the dataflow engine consume.
fn collect_calls(tokens: &[Token], sig: &[usize], fns: &mut [FnItem]) {
    for f in fns.iter_mut() {
        let Some((open, close)) = f.body else { continue };
        // Sig positions inside the body.
        let mut k = sig.partition_point(|&j| j <= open);
        let mut calls = Vec::new();
        let mut tries = Vec::new();
        let mut let_types = Vec::new();
        while let Some(t) = peek(tokens, sig, k) {
            let Some(&tok_idx) = sig.get(k) else { break };
            if tok_idx >= close {
                break;
            }
            // Skip attributes inside bodies (`#[cfg(...)]` contains
            // call-shaped idents).
            if t.is_punct('#') && peek(tokens, sig, k + 1).is_some_and(|n| n.is_punct('[')) {
                k = match_delim(tokens, sig, k + 1, '[', ']') + 1;
                continue;
            }
            if t.is_ident("let") {
                if let Some(hint) = let_type_hint(tokens, sig, k) {
                    let_types.push(hint);
                }
            }
            if t.kind == TokenKind::Ident
                && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                && !peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_ident("fn"))
            {
                // A call site is `name(..)` or `name::<..>(..)` — the
                // turbofish (e.g. a const-generic dispatch flag) is skipped
                // before looking for the argument parens.
                let direct = peek(tokens, sig, k + 1).is_some_and(|n| n.is_punct('('));
                let turbofish = !direct
                    && peek(tokens, sig, k + 1).is_some_and(|n| n.is_punct(':'))
                    && peek(tokens, sig, k + 2).is_some_and(|n| n.is_punct(':'))
                    && peek(tokens, sig, k + 3).is_some_and(|n| n.is_punct('<'))
                    && {
                        let close = match_delim(tokens, sig, k + 3, '<', '>');
                        close > k + 3
                            && peek(tokens, sig, close + 1).is_some_and(|n| n.is_punct('('))
                    };
                if direct || turbofish {
                    let method =
                        peek(tokens, sig, k.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
                    let path = if method { Vec::new() } else { leading_path(tokens, sig, k) };
                    let recv = if method { receiver_ident(tokens, sig, k) } else { None };
                    calls.push(Call { name: t.text.clone(), path, method, recv, line: t.line });
                }
            }
            if t.is_punct('?')
                && peek(tokens, sig, k.wrapping_sub(1))
                    .is_some_and(|p| p.is_punct(')') || p.kind == TokenKind::Ident)
            {
                tries.push(t.line);
            }
            k += 1;
        }
        f.calls = calls;
        f.tries = tries;
        f.let_types = let_types;
    }
}

/// The plain-identifier receiver of the method call at `sig[k]` (the callee
/// ident): `w.recycle()` → `Some("w")`. Field chains (`self.inner.m()`),
/// call results, and literals yield `None` — the resolver then falls back to
/// the name-based over-approximation.
fn receiver_ident(tokens: &[Token], sig: &[usize], k: usize) -> Option<String> {
    if k < 2 {
        return None;
    }
    let recv = peek(tokens, sig, k - 2)?;
    if recv.kind != TokenKind::Ident {
        return None;
    }
    // `a.b.method()` — `b` is a field, not a variable; stay conservative.
    if k >= 3 && peek(tokens, sig, k - 3).is_some_and(|p| p.is_punct('.')) {
        return None;
    }
    Some(recv.text.clone())
}

/// Type hint from the `let` at `sig[k]`: handles `let [mut] x: T = ..` and
/// `let [mut] x = T::..` (uppercase-initial `T` only).
fn let_type_hint(tokens: &[Token], sig: &[usize], k: usize) -> Option<(String, String)> {
    let mut j = k + 1;
    if peek(tokens, sig, j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = peek(tokens, sig, j).filter(|t| t.kind == TokenKind::Ident)?.text.clone();
    let next = peek(tokens, sig, j + 1)?;
    if next.is_punct(':') && !peek(tokens, sig, j + 2).is_some_and(|t| t.is_punct(':')) {
        let ty = (j + 2..j + 8)
            .filter_map(|m| peek(tokens, sig, m))
            .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
            .find(|t| t.kind == TokenKind::Ident && !NON_TYPE_IDENTS.contains(&t.text.as_str()))?;
        return Some((name, ty.text.clone()));
    }
    if next.is_punct('=') {
        let head = peek(tokens, sig, j + 2)?;
        let qualified = peek(tokens, sig, j + 3).is_some_and(|t| t.is_punct(':'))
            && peek(tokens, sig, j + 4).is_some_and(|t| t.is_punct(':'));
        if head.kind == TokenKind::Ident
            && qualified
            && head.text.chars().next().is_some_and(char::is_uppercase)
        {
            return Some((name, head.text.clone()));
        }
    }
    None
}

/// Collects the `::`-joined segments preceding the ident at `sig[k]`
/// (e.g. `workspace::recycle(` at the `recycle` token yields
/// `["workspace"]`).
fn leading_path(tokens: &[Token], sig: &[usize], k: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut k = k;
    while k >= 3 {
        let colon2 = peek(tokens, sig, k - 1).is_some_and(|t| t.is_punct(':'))
            && peek(tokens, sig, k - 2).is_some_and(|t| t.is_punct(':'));
        if !colon2 {
            break;
        }
        match peek(tokens, sig, k - 3) {
            Some(t) if t.kind == TokenKind::Ident => {
                segs.push(t.text.clone());
                k -= 3;
            }
            _ => break,
        }
    }
    segs.reverse();
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse("test.rs", &lex(src))
    }

    #[test]
    fn finds_free_fns_with_visibility() {
        let p = parse_src("pub fn a() {} fn b() {} pub(crate) fn c() {}");
        let vis: Vec<(String, Vis)> =
            p.fns.iter().map(|f| (f.name.clone(), f.vis)).collect();
        assert_eq!(
            vis,
            vec![
                ("a".to_string(), Vis::Public),
                ("b".to_string(), Vis::Private),
                ("c".to_string(), Vis::Restricted),
            ]
        );
    }

    #[test]
    fn records_module_and_impl_paths() {
        let p = parse_src(
            "mod outer { impl Foo { pub fn m(&self) {} } fn free() {} }\n\
             impl Bar for Baz { fn t(&self) {} }",
        );
        let quals: Vec<String> = p.fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(quals, vec!["outer::Foo::m", "outer::free", "Baz::t"]);
    }

    #[test]
    fn cfg_test_marks_items() {
        let p = parse_src(
            "#[cfg(test)] mod tests { fn helper() {} #[test] fn case() {} }\n\
             fn lib_fn() {}",
        );
        let tests: Vec<(String, bool)> =
            p.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            tests,
            vec![
                ("helper".to_string(), true),
                ("case".to_string(), true),
                ("lib_fn".to_string(), false),
            ]
        );
    }

    #[test]
    fn return_type_idents_collected() {
        let p = parse_src("fn k(a: usize) -> Result<(CsrMatrix, OpStats), Error> { todo_body() }");
        let f = p.fns.first().expect("one fn");
        assert!(f.ret.iter().any(|s| s == "OpStats"));
        assert!(f.ret.iter().any(|s| s == "CsrMatrix"));
    }

    #[test]
    fn calls_with_paths_and_methods() {
        let p = parse_src(
            "fn f(w: &mut W) { let b = workspace::take_index_buffer(w); \
             b.push(1); recycle(b); if ready() { nested::deep::go(); } }",
        );
        let f = p.fns.first().expect("one fn");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["take_index_buffer", "push", "recycle", "ready", "go"]);
        let take = f.calls.first().expect("first call");
        assert_eq!(take.path, vec!["workspace".to_string()]);
        let push = f.calls.get(1).expect("second call");
        assert!(push.method);
        let go = f.calls.last().expect("last call");
        assert_eq!(go.path, vec!["nested".to_string(), "deep".to_string()]);
    }

    #[test]
    fn nested_fn_is_own_item_and_contributes_to_outer() {
        let p = parse_src("fn outer() { fn inner() { leaf(); } inner(); }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        let outer = p.fns.first().expect("outer");
        assert!(outer.calls.iter().any(|c| c.name == "leaf"));
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn bodyless_trait_methods_have_no_body() {
        let p = parse_src("trait T { fn decl(&self) -> usize; fn given(&self) -> usize { 1 } }");
        let bodies: Vec<bool> = p.fns.iter().map(|f| f.body.is_some()).collect();
        assert_eq!(bodies, vec![false, true]);
        assert_eq!(p.types.len(), 1);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let p = parse_src("fn f() { vec![1]; assert_eq!(1, 1); if x() {} match y() {} }");
        let f = p.fns.first().expect("one fn");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn use_and_type_items_collected() {
        let p = parse_src("use crate::ops::spgemm;\npub struct S { x: usize }\nenum E { A }");
        assert_eq!(p.uses.len(), 1);
        assert!(p.uses.first().is_some_and(|u| u.path.contains("ops::spgemm")));
        let kinds: Vec<&str> = p.types.iter().map(|t| t.kind.as_str()).collect();
        assert_eq!(kinds, vec!["struct", "enum"]);
    }

    #[test]
    fn generic_impl_headers_resolve_owner() {
        let p = parse_src("impl<T: Clone> Holder<T> { fn get(&self) {} }");
        let f = p.fns.first().expect("one fn");
        assert_eq!(f.impl_of.as_deref(), Some("Holder"));
        let p = parse_src("impl Display for OpStats { fn fmt(&self) {} }");
        let f = p.fns.first().expect("one fn");
        assert_eq!(f.impl_of.as_deref(), Some("OpStats"));
    }

    #[test]
    fn trait_bodies_mark_their_fns() {
        let p = parse_src(
            "trait Walk<T>: Sized { fn step(&self); fn run(&self) { self.step() } }\nfn free() {}",
        );
        let in_trait: Vec<(&str, bool)> =
            p.fns.iter().map(|f| (f.name.as_str(), f.in_trait)).collect();
        assert_eq!(in_trait, vec![("step", true), ("run", true), ("free", false)]);
        assert!(p.fns.iter().all(|f| f.impl_of.is_none()));
        assert_eq!(p.types.first().map(|t| t.name.as_str()), Some("Walk"));
    }

    #[test]
    fn does_not_panic_on_garbage() {
        for src in ["fn", "impl {", "mod", "fn (", "use ;", "#[", "{ } } }", "fn f(" ] {
            let _ = parse_src(src);
        }
    }
}
