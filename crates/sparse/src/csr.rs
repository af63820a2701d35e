//! Compressed Sparse Row matrices.
//!
//! [`CsrMatrix`] is the workhorse format of the whole framework: graph
//! snapshots (`A^t`), dissimilarity matrices (`ΔA`) and their fused powers
//! (`A_C`, `ΔA_C`) are all CSR. The paper's PE stores exactly this format in
//! its Graph Structure Buffer (§V-B).

use crate::error::{Result, SparseError};
use crate::{CooMatrix, DenseMatrix};

/// An immutable sparse matrix in Compressed Sparse Row format.
///
/// Invariants (checked by [`CsrMatrix::from_raw_parts`]):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, monotone non-decreasing;
/// * `indices` / `values` have length `indptr[rows]`;
/// * within each row, column indices are strictly increasing and `< cols`.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idgnn_sparse::SparseError> {
/// use idgnn_sparse::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0)?;
/// coo.push(1, 0, 1.0)?;
/// let a: CsrMatrix = coo.to_csr();
/// assert_eq!(a.nnz(), 2);
/// assert!(a.is_symmetric(0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows` × `cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from raw components, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if any CSR invariant is
    /// violated (see the type-level docs).
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self> {
        check_csr_parts(rows, cols, &indptr, &indices, &values)?;
        Ok(Self { rows, cols, indptr, indices, values })
    }

    /// Re-checks every CSR structural invariant of an existing matrix:
    /// `indptr` length and monotonicity, `indices`/`values` lengths, and
    /// strictly-increasing in-bounds column indices per row.
    ///
    /// Matrices built through the public API uphold these by construction;
    /// `validate` exists as the runtime counterpart of the `idgnn-lint`
    /// static rules — under the `strict-invariants` cargo feature it is
    /// re-asserted at every construction, splice, and assemble site (see
    /// DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        check_csr_parts(self.rows, self.cols, &self.indptr, &self.indices, &self.values)
    }

    /// [`CsrMatrix::validate`] plus the pruned-output invariant: no stored
    /// entry may be an explicit zero (or NaN — anything failing
    /// `v.abs() > 0.0`).
    ///
    /// This is the contract of [`CsrMatrix::pruned`]`(0.0)` and of the
    /// merge-time zero dropping in
    /// [`ops::sp_sub_pruned`](crate::ops::sp_sub_pruned), on which the DIU's
    /// `ΔA` sparsity accounting relies.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] on the first structural
    /// violation or explicit zero.
    pub fn validate_pruned(&self) -> Result<()> {
        self.validate()?;
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                if v == 0.0 || v.is_nan() {
                    return Err(SparseError::InvalidStructure {
                        reason: format!("explicit zero (or NaN) stored at ({r}, {c}): {v}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Asserts [`CsrMatrix::validate`] under the `strict-invariants`
    /// feature; a no-op otherwise.
    #[inline]
    pub(crate) fn debug_validate(&self, site: &str) {
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate() {
            // lint: allow(panic-surface) -- strict-invariants assertion helper: panicking here is the feature
            panic!("strict-invariants violated at {site}: {e}");
        }
        #[cfg(not(feature = "strict-invariants"))]
        let _ = site;
    }

    /// Asserts [`CsrMatrix::validate_pruned`] under the `strict-invariants`
    /// feature; a no-op otherwise.
    #[inline]
    pub(crate) fn debug_validate_pruned(&self, site: &str) {
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_pruned() {
            // lint: allow(panic-surface) -- strict-invariants assertion helper: panicking here is the feature
            panic!("strict-invariants violated at {site}: {e}");
        }
        #[cfg(not(feature = "strict-invariants"))]
        let _ = site;
    }

    /// Decomposes the matrix into `(rows, cols, indptr, indices, values)`.
    ///
    /// The inverse of [`CsrMatrix::from_raw_parts`]; used by the workspace
    /// pool ([`crate::workspace::recycle`]) to reclaim the backing storage of
    /// consumed intermediates.
    pub fn into_raw_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f32>) {
        (self.rows, self.cols, self.indptr, self.indices, self.values)
    }

    /// Builds a CSR matrix from a dense one, dropping exact zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let mut coo = CooMatrix::with_capacity(
            dense.rows(),
            dense.cols(),
            dense.count_above(0.0),
        );
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v != 0.0 {
                    // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
                    coo.push(r, c, v).expect("in-bounds by construction");
                }
            }
        }
        coo.to_csr()
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are stored: `nnz / (rows * cols)`.
    ///
    /// Returns `0.0` for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array (`nnz` entries).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        self.indptr[r + 1] - self.indptr[r]
    }

    /// The column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// The values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_values(&self, r: usize) -> &[f32] {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.row_indices(r).iter().copied().zip(self.row_values(r).iter().copied())
    }

    /// Iterator over all `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_iter(r).map(move |(c, v)| (r, c, v)))
    }

    /// Value at `(r, c)`; `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` (a column beyond `cols` simply returns `0.0`).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        match self.row_indices(r).binary_search(&c) {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            Ok(i) => self.row_values(r)[i],
            Err(_) => 0.0,
        }
    }

    /// Matrix transpose (O(nnz)).
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            indptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            indptr[i + 1] += indptr[i];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                let slot = next[c];
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                indices[slot] = r;
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                values[slot] = v;
                // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
                next[c] += 1;
            }
        }
        let out = CsrMatrix { rows: self.cols, cols: self.rows, indptr, indices, values };
        out.debug_validate("CsrMatrix::transpose");
        out
    }

    /// Whether `|self - selfᵀ| <= tol` element-wise (requires square shape).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr {
            // Different structure can still be symmetric only if mismatched
            // entries are within tol of zero; fall through to value check.
        }
        for r in 0..self.rows {
            let mut mine = self.row_iter(r);
            let mut theirs = t.row_iter(r);
            let (mut a, mut b) = (mine.next(), theirs.next());
            loop {
                match (a, b) {
                    (None, None) => break,
                    (Some((_, va)), None) => {
                        if va.abs() > tol {
                            return false;
                        }
                        a = mine.next();
                    }
                    (None, Some((_, vb))) => {
                        if vb.abs() > tol {
                            return false;
                        }
                        b = theirs.next();
                    }
                    (Some((ca, va)), Some((cb, vb))) => {
                        if ca == cb {
                            if (va - vb).abs() > tol {
                                return false;
                            }
                            a = mine.next();
                            b = theirs.next();
                        } else if ca < cb {
                            if va.abs() > tol {
                                return false;
                            }
                            a = mine.next();
                        } else {
                            if vb.abs() > tol {
                                return false;
                            }
                            b = theirs.next();
                        }
                    }
                }
            }
        }
        true
    }

    /// Whether the *support* (stored-entry pattern) is symmetric, regardless
    /// of values (requires square shape).
    ///
    /// This is the precondition the incremental power update checks before
    /// trusting a forward-edge BFS ([`crate::frontier`]): normalized
    /// operators like `D^{-1/2}(A+I)D^{-1/2}` are structurally symmetric even
    /// when float rounding makes paired values differ in the last bit, which
    /// would fail [`CsrMatrix::is_symmetric`]`(0.0)`.
    pub fn structurally_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        t.indptr == self.indptr && t.indices == self.indices
    }

    /// Returns a copy in which row `rows[j]` is replaced by row `j` of
    /// `replacement`; every other row is copied verbatim (bit-identical).
    ///
    /// This is the splice half of the incremental power update: the dirty
    /// rows recomputed by
    /// [`ops::row_masked_spgemm_with_workspace`](crate::ops::row_masked_spgemm_with_workspace)
    /// are merged back into the cached power without touching clean rows.
    /// The output buffers come from the global pool
    /// ([`crate::workspace`]), so steady-state splices are allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `replacement` is not
    /// `rows.len()` × `self.cols()` and [`SparseError::InvalidStructure`] if
    /// `rows` is not strictly increasing or indexes past the last row.
    pub fn splice_rows(&self, rows: &[usize], replacement: &CsrMatrix) -> Result<CsrMatrix> {
        if replacement.rows() != rows.len() || replacement.cols() != self.cols {
            return Err(SparseError::DimensionMismatch {
                op: "splice_rows",
                lhs: (rows.len(), self.cols),
                rhs: replacement.shape(),
            });
        }
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        if rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SparseError::InvalidStructure {
                reason: "splice_rows row set not strictly increasing".into(),
            });
        }
        if let Some(&last) = rows.last() {
            if last >= self.rows {
                return Err(SparseError::InvalidStructure {
                    reason: format!("splice_rows row {last} >= rows {}", self.rows),
                });
            }
        }
        let cap = self.nnz() + replacement.nnz();
        let mut indptr = crate::workspace::take_index_buffer(self.rows + 1);
        let mut indices = crate::workspace::take_index_buffer(cap);
        let mut values = crate::workspace::take_value_buffer(cap);
        indptr.push(0usize);
        let mut next = 0usize; // cursor into `rows`
        for r in 0..self.rows {
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            let (src, row) = if next < rows.len() && rows[next] == r {
                next += 1;
                (replacement, next - 1)
            } else {
                (self, r)
            };
            indices.extend_from_slice(src.row_indices(row));
            values.extend_from_slice(src.row_values(row));
            indptr.push(indices.len());
        }
        let out = Self::from_raw_parts(self.rows, self.cols, indptr, indices, values)
            // lint: allow(panic-surface) -- invariant documented at the call site; grandfathered by the PR5 ratchet-to-zero
            .expect("spliced CSR is valid: both sources satisfy the invariants");
        out.debug_validate("CsrMatrix::splice_rows");
        Ok(out)
    }

    /// Returns a copy with every stored value scaled by `s`.
    pub fn scale(&self, s: f32) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out.debug_validate("CsrMatrix::scale");
        out
    }

    /// Returns a copy with entries of absolute value ≤ `tol` removed.
    pub fn pruned(&self, tol: f32) -> CsrMatrix {
        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                if v.abs() > tol {
                    indices.push(c);
                    values.push(v);
                }
            }
            // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
            indptr[r + 1] = indices.len();
        }
        let out = CsrMatrix { rows: self.rows, cols: self.cols, indptr, indices, values };
        if tol >= 0.0 {
            out.debug_validate_pruned("CsrMatrix::pruned");
        }
        out
    }

    /// Largest absolute stored value (`0.0` if empty).
    pub fn max_abs(&self) -> f32 {
        self.values.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Whether every corresponding entry of `self` and `rhs` differs by at
    /// most `tol` (shapes must match exactly).
    pub fn approx_eq(&self, rhs: &CsrMatrix, tol: f32) -> bool {
        if self.shape() != rhs.shape() {
            return false;
        }
        crate::ops::sp_sub(self, rhs)
            .map(|d| d.max_abs() <= tol)
            .unwrap_or(false)
    }

    /// Bytes needed to hold this matrix in CSR form with 4-byte indices and
    /// 4-byte values (the accounting unit used by the accelerator model's
    /// Graph Structure Buffer).
    pub fn csr_bytes(&self) -> u64 {
        // indptr + indices + values, all 4-byte words.
        4 * (self.indptr.len() as u64 + self.indices.len() as u64 + self.values.len() as u64)
    }
}

/// The named CSR invariants enforced by [`CsrMatrix::from_raw_parts`] and
/// [`CsrMatrix::validate`], in evaluation order.
///
/// These are the structural facts every `CsrMatrix` in the process is
/// guaranteed to satisfy; `tests/invariants.rs` breaks each one in turn and
/// asserts construction rejects it. Each slug names one `check_*` function
/// below:
///
/// * `indptr-len` — `indptr` has `rows + 1` entries and is anchored at 0.
/// * `row-ptr-monotone` — `indptr` is non-decreasing.
/// * `len-consistent` — `indices`/`values` both hold `indptr[rows]` entries.
/// * `col-sorted-unique` — each row's column indices strictly increase.
/// * `col-in-bounds` — each row's column indices are `< cols` (what lets a
///   `row_indices(r)` element index the SpGEMM accumulator).
pub const CHECKED_INVARIANTS: [&str; 5] =
    ["indptr-len", "row-ptr-monotone", "len-consistent", "col-sorted-unique", "col-in-bounds"];

/// `indptr-len`: the row-pointer array has `rows + 1` entries, anchored at 0.
fn check_indptr_len(rows: usize, indptr: &[usize]) -> Result<()> {
    if indptr.len() != rows + 1 {
        return Err(SparseError::InvalidStructure {
            reason: format!("indptr length {} != rows + 1 = {}", indptr.len(), rows + 1),
        });
    }
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    if indptr[0] != 0 {
        return Err(SparseError::InvalidStructure { reason: "indptr[0] != 0".into() });
    }
    Ok(())
}

/// `row-ptr-monotone`: row pointers never decrease.
fn check_row_ptr_monotone(indptr: &[usize]) -> Result<()> {
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(SparseError::InvalidStructure { reason: "indptr not monotone".into() });
    }
    Ok(())
}

/// `len-consistent`: `indices` and `values` both hold exactly `nnz` entries.
fn check_len_consistent(nnz: usize, indices: &[usize], values: &[f32]) -> Result<()> {
    if indices.len() != nnz || values.len() != nnz {
        return Err(SparseError::InvalidStructure {
            reason: format!(
                "indices/values length ({}, {}) != indptr[rows] = {nnz}",
                indices.len(),
                values.len()
            ),
        });
    }
    Ok(())
}

/// `col-sorted-unique`: one row's column indices strictly increase.
fn check_row_sorted_unique(r: usize, row: &[usize]) -> Result<()> {
    for w in row.windows(2) {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        if w[0] >= w[1] {
            return Err(SparseError::InvalidStructure {
                reason: format!("row {r} column indices not strictly increasing"),
            });
        }
    }
    Ok(())
}

/// `col-in-bounds`: one row's column indices are all `< cols`. Only the last
/// entry needs checking once `col-sorted-unique` has passed.
fn check_row_col_in_bounds(r: usize, row: &[usize], cols: usize) -> Result<()> {
    if let Some(&last) = row.last() {
        if last >= cols {
            return Err(SparseError::InvalidStructure {
                reason: format!("row {r} has column index {last} >= cols {cols}"),
            });
        }
    }
    Ok(())
}

/// The CSR invariant check shared by [`CsrMatrix::from_raw_parts`] and
/// [`CsrMatrix::validate`]: every invariant in [`CHECKED_INVARIANTS`], in
/// that order (the two per-row checks share one pass over the rows).
fn check_csr_parts(
    rows: usize,
    cols: usize,
    indptr: &[usize],
    indices: &[usize],
    values: &[f32],
) -> Result<()> {
    check_indptr_len(rows, indptr)?;
    check_row_ptr_monotone(indptr)?;
    // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
    check_len_consistent(indptr[rows], indices, values)?;
    for r in 0..rows {
        // lint: allow(panic-surface) -- in-bounds by construction at this site; grandfathered by the PR5 ratchet-to-zero
        let row = &indices[indptr[r]..indptr[r + 1]];
        check_row_sorted_unique(r, row)?;
        check_row_col_in_bounds(r, row, cols)?;
    }
    Ok(())
}

impl Default for CsrMatrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl From<&DenseMatrix> for CsrMatrix {
    fn from(d: &DenseMatrix) -> Self {
        CsrMatrix::from_dense(d)
    }
}

impl std::fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} nnz={} density={:.4}%",
            self.rows,
            self.cols,
            self.nnz(),
            self.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [0 1 0]
        // [2 0 3]
        // [0 0 4]
        CsrMatrix::from_raw_parts(3, 3, vec![0, 1, 3, 4], vec![1, 0, 2, 2], vec![1.0, 2.0, 3.0, 4.0])
            .unwrap()
    }

    #[test]
    fn raw_parts_roundtrip() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(2, 2), 4.0);
    }

    #[test]
    fn invalid_indptr_rejected() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![1, 1, 1], vec![], vec![]).is_err());
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn unsorted_columns_rejected() {
        assert!(
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err()
        );
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(
            CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err()
        );
    }

    #[test]
    fn column_overflow_rejected() {
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(1, 2), 3.0);
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(back, m);
    }

    #[test]
    fn transpose_known() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(2, 1), 3.0);
        assert_eq!(t.get(2, 2), 4.0);
        assert_eq!(t.nnz(), m.nnz());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_properties() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert!(i.is_symmetric(0.0));
        assert_eq!(i.to_dense(), DenseMatrix::identity(4));
    }

    #[test]
    fn symmetry_detection() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_symmetric(0, 1, 2.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        assert!(coo.to_csr().is_symmetric(0.0));
        assert!(!sample().is_symmetric(1e-6));
        assert!(!CsrMatrix::zeros(2, 3).is_symmetric(0.0));
    }

    #[test]
    fn density_and_bytes() {
        let m = sample();
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.csr_bytes(), 4 * (4 + 4 + 4) as u64);
        assert_eq!(CsrMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn pruned_drops_small_entries() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1e-9).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        let p = coo.to_csr().pruned(1e-6);
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(1, 1), 5.0);
    }

    #[test]
    fn scale_multiplies_values() {
        let m = sample().scale(2.0);
        assert_eq!(m.get(2, 2), 8.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = sample();
        let mut b = sample();
        // Perturb one value by rebuilding.
        let mut vals = b.values().to_vec();
        vals[0] += 0.5;
        b = CsrMatrix::from_raw_parts(3, 3, b.indptr().to_vec(), b.indices().to_vec(), vals)
            .unwrap();
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn iter_visits_all_entries() {
        let m = sample();
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 2, 4.0)]);
    }

    #[test]
    fn row_accessors() {
        let m = sample();
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.row_indices(1), &[0, 2]);
        assert_eq!(m.row_values(1), &[2.0, 3.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", sample()).contains("nnz=4"));
    }

    #[test]
    fn structural_symmetry_ignores_values() {
        // Symmetric support with asymmetric values: structurally symmetric,
        // not value-symmetric.
        let m = CsrMatrix::from_raw_parts(
            2,
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![1.0, 2.0],
        )
        .unwrap();
        assert!(m.structurally_symmetric());
        assert!(!m.is_symmetric(0.5));
        assert!(!sample().structurally_symmetric());
        assert!(!CsrMatrix::zeros(2, 3).structurally_symmetric());
        assert!(CsrMatrix::identity(3).structurally_symmetric());
    }

    #[test]
    fn splice_rows_replaces_selected_rows_only() {
        let m = sample();
        // Replace rows 0 and 2.
        let repl = CsrMatrix::from_raw_parts(
            2,
            3,
            vec![0, 2, 2],
            vec![0, 2],
            vec![9.0, 8.0],
        )
        .unwrap();
        let out = m.splice_rows(&[0, 2], &repl).unwrap();
        assert_eq!(out.row_indices(0), &[0, 2]);
        assert_eq!(out.row_values(0), &[9.0, 8.0]);
        assert_eq!(out.row_indices(1), m.row_indices(1));
        assert_eq!(out.row_values(1), m.row_values(1));
        assert_eq!(out.row_nnz(2), 0);
    }

    #[test]
    fn splice_rows_empty_set_is_bit_identical() {
        let m = sample();
        let out = m.splice_rows(&[], &CsrMatrix::zeros(0, 3)).unwrap();
        assert_eq!(out.indptr(), m.indptr());
        assert_eq!(out.indices(), m.indices());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out.values()), bits(m.values()));
    }

    #[test]
    fn validate_accepts_well_formed_matrices() {
        sample().validate().unwrap();
        CsrMatrix::zeros(3, 2).validate().unwrap();
        CsrMatrix::identity(4).validate_pruned().unwrap();
        sample().transpose().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_corruption() {
        // Construct corrupt matrices directly (same-module field access
        // deliberately bypasses from_raw_parts).
        let non_monotone = CsrMatrix {
            rows: 2,
            cols: 2,
            indptr: vec![0, 2, 1],
            indices: vec![0, 1, 0],
            values: vec![1.0; 3],
        };
        assert!(non_monotone.validate().is_err());
        let unsorted = CsrMatrix {
            rows: 1,
            cols: 3,
            indptr: vec![0, 2],
            indices: vec![2, 0],
            values: vec![1.0, 1.0],
        };
        assert!(unsorted.validate().is_err());
        let duplicate = CsrMatrix {
            rows: 1,
            cols: 3,
            indptr: vec![0, 2],
            indices: vec![1, 1],
            values: vec![1.0, 1.0],
        };
        assert!(duplicate.validate().is_err());
        let out_of_bounds = CsrMatrix {
            rows: 1,
            cols: 2,
            indptr: vec![0, 1],
            indices: vec![5],
            values: vec![1.0],
        };
        assert!(out_of_bounds.validate().is_err());
        let length_mismatch = CsrMatrix {
            rows: 1,
            cols: 2,
            indptr: vec![0, 2],
            indices: vec![0],
            values: vec![1.0],
        };
        assert!(length_mismatch.validate().is_err());
    }

    #[test]
    fn validate_pruned_rejects_explicit_zeros() {
        let explicit_zero = CsrMatrix {
            rows: 1,
            cols: 2,
            indptr: vec![0, 2],
            indices: vec![0, 1],
            values: vec![1.0, 0.0],
        };
        explicit_zero.validate().unwrap();
        assert!(explicit_zero.validate_pruned().is_err());
        let nan = CsrMatrix {
            rows: 1,
            cols: 1,
            indptr: vec![0, 1],
            indices: vec![0],
            values: vec![f32::NAN],
        };
        assert!(nan.validate_pruned().is_err());
    }

    #[test]
    fn splice_rows_validates_inputs() {
        let m = sample();
        // Wrong replacement shape.
        assert!(matches!(
            m.splice_rows(&[0], &CsrMatrix::zeros(2, 3)),
            Err(SparseError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.splice_rows(&[0], &CsrMatrix::zeros(1, 2)),
            Err(SparseError::DimensionMismatch { .. })
        ));
        // Unsorted / duplicate / out-of-range row sets.
        assert!(m.splice_rows(&[1, 0], &CsrMatrix::zeros(2, 3)).is_err());
        assert!(m.splice_rows(&[1, 1], &CsrMatrix::zeros(2, 3)).is_err());
        assert!(m.splice_rows(&[3], &CsrMatrix::zeros(1, 3)).is_err());
    }
}
