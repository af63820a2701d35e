//! Shared counters and structural statistics of sparse matrices.
//!
//! Home of [`OpStats`], the exact scalar-operation accounting every kernel in
//! [`crate::ops`] reports, and of the structural summaries the accelerator's
//! analytical pipeline model (paper Eqs. 18–22) is driven by: sparsity ratios
//! (`p^{t-1}`, `s^t`) and vertex counts, computed from actual matrices.

use crate::CsrMatrix;

/// Exact scalar-operation counts of a kernel invocation.
///
/// This is the *only* place an `OpStats` value may be built from raw counts
/// (enforced by `idgnn-lint` rule `opstats-literal`): every kernel in
/// [`crate::ops`] routes its accounting through [`OpStats::counted`] or the
/// accumulation operators below, which is what keeps the figure-JSON replay
/// guarantee auditable — a stray hand-rolled literal in a kernel would
/// silently skew the byte-identical op accounting.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idgnn_sparse::SparseError> {
/// use idgnn_sparse::{ops, CsrMatrix};
///
/// let i = CsrMatrix::identity(4);
/// let (_, stats) = ops::spgemm_with_stats(&i, &i)?;
/// assert_eq!(stats.mults, 4); // one multiply per diagonal entry
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Scalar multiplications performed.
    pub mults: u64,
    /// Scalar additions performed (accumulations).
    pub adds: u64,
}

impl OpStats {
    /// The shared-counter constructor: an `OpStats` carrying exactly the
    /// given counts. Kernels in [`crate::ops`] must use this (or fold with
    /// `+=`) instead of writing struct literals.
    pub const fn counted(mults: u64, adds: u64) -> OpStats {
        OpStats { mults, adds }
    }

    /// Counts of a dense `m × k` by `k × n` product: `m·n·k` multiplies and
    /// `m·n·(k − 1)` adds. Depends on the shapes only, so a caller can charge
    /// a product it never evaluates.
    pub const fn gemm(m: u64, n: u64, k: u64) -> OpStats {
        OpStats::counted(m * n * k, m * n * k.saturating_sub(1))
    }

    /// Total scalar operations (`mults + adds`).
    pub fn total(&self) -> u64 {
        self.mults + self.adds
    }

    /// Component-wise sum of two stats.
    pub fn merged(self, other: OpStats) -> OpStats {
        OpStats::counted(self.mults + other.mults, self.adds + other.adds)
    }
}

impl std::ops::Add for OpStats {
    type Output = OpStats;
    fn add(self, rhs: OpStats) -> OpStats {
        self.merged(rhs)
    }
}

impl std::ops::AddAssign for OpStats {
    fn add_assign(&mut self, rhs: OpStats) {
        *self = self.merged(rhs);
    }
}

impl std::fmt::Display for OpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpStats {{ mults: {}, adds: {} }}", self.mults, self.adds)
    }
}

/// Summary statistics of a sparse matrix's structure.
///
/// # Examples
///
/// ```
/// use idgnn_sparse::{CsrMatrix, stats::StructureStats};
///
/// let i = CsrMatrix::identity(10);
/// let s = StructureStats::of(&i);
/// assert_eq!(s.nnz, 10);
/// assert_eq!(s.max_row_nnz, 1);
/// assert!((s.density - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Stored non-zero count.
    pub nnz: usize,
    /// `nnz / (rows * cols)`.
    pub density: f64,
    /// Mean stored entries per row.
    pub mean_row_nnz: f64,
    /// Largest stored entries in any row.
    pub max_row_nnz: usize,
    /// Smallest stored entries in any row.
    pub min_row_nnz: usize,
    /// Number of rows with no stored entries.
    pub empty_rows: usize,
}

impl StructureStats {
    /// Computes the statistics of `m`.
    pub fn of(m: &CsrMatrix) -> Self {
        let rows = m.rows();
        let mut max_row = 0usize;
        let mut min_row = usize::MAX;
        let mut empty = 0usize;
        for r in 0..rows {
            let n = m.row_nnz(r);
            max_row = max_row.max(n);
            min_row = min_row.min(n);
            if n == 0 {
                empty += 1;
            }
        }
        if rows == 0 {
            min_row = 0;
        }
        Self {
            rows,
            cols: m.cols(),
            nnz: m.nnz(),
            density: m.density(),
            mean_row_nnz: if rows == 0 { 0.0 } else { m.nnz() as f64 / rows as f64 },
            max_row_nnz: max_row,
            min_row_nnz: min_row,
            empty_rows: empty,
        }
    }
}

impl std::fmt::Display for StructureStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{} nnz={} density={:.4}% row-nnz mean={:.2} max={} min={} empty={}",
            self.rows,
            self.cols,
            self.nnz,
            self.density * 100.0,
            self.mean_row_nnz,
            self.max_row_nnz,
            self.min_row_nnz,
            self.empty_rows
        )
    }
}

/// Degree histogram of a square adjacency matrix (bucketed by powers of two).
///
/// Bucket `i` counts rows whose nnz `d` satisfies `2^i <= d < 2^(i+1)`;
/// bucket 0 additionally counts degree-1 rows, and isolated rows are
/// reported separately in [`DegreeHistogram::isolated`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegreeHistogram {
    /// Power-of-two degree buckets.
    pub buckets: Vec<usize>,
    /// Rows with zero stored entries.
    pub isolated: usize,
}

impl DegreeHistogram {
    /// Computes the histogram of `m`'s row degrees.
    pub fn of(m: &CsrMatrix) -> Self {
        let mut buckets = Vec::new();
        let mut isolated = 0usize;
        for r in 0..m.rows() {
            let d = m.row_nnz(r);
            if d == 0 {
                isolated += 1;
                continue;
            }
            let b = (usize::BITS - 1 - d.leading_zeros()) as usize;
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        Self { buckets, isolated }
    }

    /// Total number of non-isolated rows counted.
    pub fn counted(&self) -> usize {
        self.buckets.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn star_graph(n: usize) -> CsrMatrix {
        // Vertex 0 connected to all others.
        let mut coo = CooMatrix::new(n, n);
        for i in 1..n {
            coo.push_symmetric(0, i, 1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn stats_of_star() {
        let s = StructureStats::of(&star_graph(5));
        assert_eq!(s.nnz, 8);
        assert_eq!(s.max_row_nnz, 4);
        assert_eq!(s.min_row_nnz, 1);
        assert_eq!(s.empty_rows, 0);
        assert!((s.mean_row_nnz - 1.6).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_matrix() {
        let s = StructureStats::of(&CsrMatrix::zeros(0, 0));
        assert_eq!(s.nnz, 0);
        assert_eq!(s.mean_row_nnz, 0.0);
        assert_eq!(s.min_row_nnz, 0);
    }

    #[test]
    fn stats_counts_empty_rows() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0).unwrap();
        let s = StructureStats::of(&coo.to_csr());
        assert_eq!(s.empty_rows, 3);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = DegreeHistogram::of(&star_graph(9)); // hub degree 8, leaves degree 1
        assert_eq!(h.isolated, 0);
        assert_eq!(h.buckets[0], 8); // eight degree-1 leaves
        assert_eq!(h.buckets[3], 1); // one degree-8 hub
        assert_eq!(h.counted(), 9);
    }

    #[test]
    fn histogram_isolated_rows() {
        let h = DegreeHistogram::of(&CsrMatrix::zeros(5, 5));
        assert_eq!(h.isolated, 5);
        assert_eq!(h.counted(), 0);
    }

    #[test]
    fn display_mentions_density() {
        let s = StructureStats::of(&CsrMatrix::identity(4));
        assert!(s.to_string().contains("density"));
    }
}
