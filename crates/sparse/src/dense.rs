//! Row-major dense `f32` matrices.
//!
//! The simulator's functional reference path (GCN/LSTM math) runs on
//! [`DenseMatrix`]. The type is deliberately small and predictable: row-major
//! storage, explicit shape checks returning [`SparseError`] on mismatch.

use crate::error::{Result, SparseError};

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idgnn_sparse::SparseError> {
/// use idgnn_sparse::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a `rows` × `cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows` × `cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(SparseError::InvalidStructure {
                    reason: format!("row {i} has length {} but row 0 has length {c}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { rows: r, cols: c, data })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::InvalidStructure {
                reason: format!("expected {} elements for {rows}x{cols}, got {}", rows * cols, data.len()),
            });
        }
        Ok(Self { rows, cols, data })
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

    /// Borrow of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self * rhs`: each output row accumulates the rows of
    /// `rhs` in ascending `k`, skipping exact-zero entries of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(SparseError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = vec![0.0f32; self.rows * rhs.cols];
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(DenseMatrix { rows: self.rows, cols: rhs.cols, data })
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn add(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn sub(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product `self ∘ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &DenseMatrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::DimensionMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(DenseMatrix { rows: self.rows, cols: self.cols, data })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> DenseMatrix {
        self.map(|v| v * s)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Rectified linear unit, applied element-wise.
    pub fn relu(&self) -> DenseMatrix {
        self.map(|v| v.max(0.0))
    }

    /// Logistic sigmoid, applied element-wise.
    pub fn sigmoid(&self) -> DenseMatrix {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Hyperbolic tangent, applied element-wise.
    pub fn tanh(&self) -> DenseMatrix {
        self.map(f32::tanh)
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute difference between corresponding entries.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &DenseMatrix) -> Result<f32> {
        if self.shape() != rhs.shape() {
            return Err(SparseError::DimensionMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Whether every corresponding pair of entries differs by at most `tol`.
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f32) -> bool {
        self.shape() == rhs.shape() && self.max_abs_diff(rhs).map(|d| d <= tol).unwrap_or(false)
    }

    /// Number of entries with absolute value above `threshold`.
    pub fn count_above(&self, threshold: f32) -> usize {
        self.data.iter().filter(|v| v.abs() > threshold).count()
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(matches!(a.matmul(&b), Err(SparseError::DimensionMismatch { .. })));
    }

    #[test]
    fn from_rows_ragged_rejected() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidStructure { .. }));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[3.0, 1.0], &[-1.0, 2.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-6));
    }

    #[test]
    fn hadamard_known() {
        let a = DenseMatrix::from_rows(&[&[2.0, 3.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[4.0, -1.0]]).unwrap();
        assert_eq!(a.hadamard(&b).unwrap(), DenseMatrix::from_rows(&[&[8.0, -3.0]]).unwrap());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = DenseMatrix::from_rows(&[&[-1.0, 0.0, 2.5]]).unwrap();
        assert_eq!(a.relu(), DenseMatrix::from_rows(&[&[0.0, 0.0, 2.5]]).unwrap());
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let a = DenseMatrix::from_rows(&[&[0.0, 100.0, -100.0]]).unwrap();
        let s = a.sigmoid();
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(s.get(0, 1) > 0.999);
        assert!(s.get(0, 2) < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let a = DenseMatrix::from_rows(&[&[0.7]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[-0.7]]).unwrap();
        assert!((a.tanh().get(0, 0) + b.tanh().get(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = DenseMatrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[1.0, 2.5]]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        assert!(a.approx_eq(&b, 0.5));
        assert!(!a.approx_eq(&b, 0.4));
    }

    #[test]
    fn count_above_threshold() {
        let a = DenseMatrix::from_rows(&[&[0.1, -0.9, 0.0, 2.0]]).unwrap();
        assert_eq!(a.count_above(0.5), 2);
    }

    #[test]
    fn display_is_nonempty() {
        let a = DenseMatrix::zeros(2, 2);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn iter_rows_yields_rows() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let rows: Vec<&[f32]> = a.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn scale_and_map() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        assert_eq!(a.scale(2.0), DenseMatrix::from_rows(&[&[2.0, -4.0]]).unwrap());
        assert_eq!(a.map(f32::abs), DenseMatrix::from_rows(&[&[1.0, 2.0]]).unwrap());
    }
}
