// Seeded violation fixture: R2 `panic-surface`.
// Library-scope code that can panic; idgnn-lint must exit nonzero on the
// `unwrap`. The bounds-checked indexing beside it is not a finding.

pub fn risky(values: &[f32]) -> f32 {
    let first = values.first().copied().unwrap();
    first + values[1]
}
