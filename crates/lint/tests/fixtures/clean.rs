// Clean fixture: no rule fires here; idgnn-lint must exit zero.
//
// It exercises the constructs closest to each rule's pattern without
// crossing the line: array types, attribute brackets, suppressed panics
// with reasons, cfg(test)-only unwraps, and markers inside literals.

/// Sums pairs without indexing.
pub fn sum_pairs(pairs: &[(f32, f32)]) -> f32 {
    pairs.iter().map(|(a, b)| a + b).sum()
}

/// A marker inside a string must stay inert: "// lint: hot-path".
pub fn describe() -> &'static str {
    "vec![] and .unwrap() in a string are data, not code"
}

/// First element of a slice the caller guarantees non-empty. Indexing is
/// bounds-checked and not a finding; the `expect` carries its invariant.
pub fn head(values: &[f32]) -> f32 {
    // lint: allow(panic-surface) -- callers pass non-empty slices
    let first = values.first().expect("non-empty");
    *first + values[values.len() - 1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v: Option<u8> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
