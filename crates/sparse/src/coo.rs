//! Coordinate-format (triplet) sparse matrix builder.
//!
//! [`CooMatrix`] is the mutable staging format: push `(row, col, value)`
//! triplets in any order, then convert to [`CsrMatrix`](crate::CsrMatrix) for
//! fast arithmetic. Duplicate coordinates are *summed* on conversion, matching
//! the usual scipy/suitesparse convention.

use crate::error::{Result, SparseError};
use crate::CsrMatrix;

/// A sparse matrix under construction, stored as unordered triplets.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idgnn_sparse::SparseError> {
/// use idgnn_sparse::CooMatrix;
///
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 1, 1.0)?;
/// coo.push(1, 2, 2.0)?;
/// coo.push(0, 1, 0.5)?; // duplicates are summed on conversion
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 1), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f32)>,
}

impl CooMatrix {
    /// Creates an empty `rows` × `cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, entries: Vec::new() }
    }

    /// Creates an empty matrix with room for `cap` triplets.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self { rows, cols, entries: Vec::with_capacity(cap) }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a triplet.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `(r, c)` lies outside the
    /// matrix.
    pub fn push(&mut self, r: usize, c: usize, v: f32) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                index: (r, c),
                shape: (self.rows, self.cols),
            });
        }
        self.entries.push((r, c, v));
        Ok(())
    }

    /// Appends a symmetric pair of triplets `(r, c, v)` and `(c, r, v)`.
    ///
    /// A diagonal coordinate (`r == c`) is pushed only once.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if either coordinate lies
    /// outside the matrix.
    pub fn push_symmetric(&mut self, r: usize, c: usize, v: f32) -> Result<()> {
        self.push(r, c, v)?;
        if r != c {
            self.push(c, r, v)?;
        }
        Ok(())
    }

    /// Iterator over the stored triplets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f32)> {
        self.entries.iter()
    }

    /// Converts to CSR, sorting triplets and summing duplicates.
    ///
    /// Entries whose duplicates cancel to exactly `0.0` are kept as explicit
    /// zeros; call [`CsrMatrix::pruned`] to drop them.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|e| (e.0, e.1));

        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());

        let mut i = 0;
        while i < sorted.len() {
            let (r, c, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            indptr[r + 1] += 1;
            indices.push(c);
            values.push(v);
        }
        for r in 0..self.rows {
            indptr[r + 1] += indptr[r];
        }
        CsrMatrix::from_raw_parts(self.rows, self.cols, indptr, indices, values)
            // lint: allow(panic-surface) -- entries are sorted and deduplicated, and push() checked every (row, col) is in bounds
            .expect("COO conversion produces valid CSR by construction")
    }
}

impl FromIterator<(usize, usize, f32)> for CooMatrix {
    /// Collects triplets, sizing the matrix to the maximum observed index + 1.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f32)>>(iter: I) -> Self {
        let entries: Vec<_> = iter.into_iter().collect();
        let rows = entries.iter().map(|e| e.0 + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|e| e.1 + 1).max().unwrap_or(0);
        Self { rows, cols, entries }
    }
}

impl Extend<(usize, usize, f32)> for CooMatrix {
    /// Extends with triplets; out-of-bounds triplets grow the matrix.
    fn extend<I: IntoIterator<Item = (usize, usize, f32)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.rows = self.rows.max(r + 1);
            self.cols = self.cols.max(c + 1);
            self.entries.push((r, c, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.is_empty());
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 1, 2.0).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn push_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(matches!(m.push(2, 0, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
        assert!(matches!(m.push(0, 2, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn to_csr_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0).unwrap();
        m.push(0, 1, 2.5).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 3.5);
    }

    #[test]
    fn to_csr_orders_columns() {
        let mut m = CooMatrix::new(1, 4);
        m.push(0, 3, 3.0).unwrap();
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 2, 2.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.row_indices(0), &[0, 2, 3]);
        assert_eq!(csr.row_values(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn push_symmetric_mirrors() {
        let mut m = CooMatrix::new(3, 3);
        m.push_symmetric(0, 2, 1.5).unwrap();
        m.push_symmetric(1, 1, 4.0).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 2), 1.5);
        assert_eq!(csr.get(2, 0), 1.5);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.nnz(), 3);
        assert!(csr.is_symmetric(0.0));
    }

    #[test]
    fn from_iterator_sizes_matrix() {
        let m: CooMatrix = vec![(0, 5, 1.0), (3, 1, 2.0)].into_iter().collect();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 6);
    }

    #[test]
    fn extend_grows_shape() {
        let mut m = CooMatrix::new(1, 1);
        m.extend(vec![(4, 4, 1.0)]);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.to_csr().get(4, 4), 1.0);
    }

    #[test]
    fn empty_to_csr() {
        let m = CooMatrix::new(3, 2);
        let csr = m.to_csr();
        assert_eq!(csr.shape(), (3, 2));
        assert_eq!(csr.nnz(), 0);
    }
}
