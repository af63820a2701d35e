// Lexer edge-case fixture: every marker below is inside a literal or a
// doc/block comment and must neither trigger `hot-path-alloc` nor suppress
// the one real finding at the bottom. Expected: exactly one
// `panic-surface` finding (the `.unwrap()` in `real_violation`).

/// lint: hot-path — doc comments never mark functions hot.
pub fn doc_comment_decoy() -> Vec<u8> {
    Vec::new()
}

/* lint: hot-path — block comments never mark functions hot. */
pub fn block_comment_decoy() -> Vec<u8> {
    Vec::new()
}

/// Returns marker-shaped *data*.
pub fn string_decoys() -> (&'static str, &'static str) {
    let plain = "// lint: hot-path";
    let raw = r#"// lint: allow(panic-surface) -- fake reason in raw string"#;
    (plain, raw)
}

/// The only real finding in this file: the allow markers above live in
/// string literals, so they must not suppress this unwrap.
pub fn real_violation(values: &[f32]) -> f32 {
    values.first().copied().unwrap()
}
