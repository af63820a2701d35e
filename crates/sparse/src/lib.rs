//! # idgnn-sparse
//!
//! Sparse and dense matrix kernels underpinning the I-DGNN reproduction
//! (HPCA 2025): CSR/COO sparse matrices, Gustavson SpGEMM, SpMM, sparse
//! addition, matrix powers, transposes, and exact per-kernel operation
//! counting.
//!
//! The design follows the data the paper's accelerator actually touches:
//!
//! * graph snapshots `A^t` and dissimilarity matrices `ΔA` are [`CsrMatrix`]
//!   (the PE's Graph Structure Buffer stores CSR, §V-B);
//! * feature and weight matrices are [`DenseMatrix`];
//! * each kernel has one entry point in [`ops`], and every one that
//!   multiplies returns its exact multiply/add counts ([`ops::OpStats`]),
//!   because the paper's simulator derives time and energy from operation
//!   and access counts (§VI-A).
//!
//! ## Example
//!
//! Compute the fused 2-layer receptive field `A²` of a small ring graph and
//! aggregate features through it:
//!
//! ```
//! # fn main() -> Result<(), idgnn_sparse::SparseError> {
//! use idgnn_sparse::{ops, CooMatrix, DenseMatrix};
//!
//! let mut coo = CooMatrix::new(4, 4);
//! for i in 0..4 {
//!     coo.push_symmetric(i, (i + 1) % 4, 1.0)?;
//! }
//! let a = coo.to_csr();
//! let (a2, pow_ops) = ops::sp_pow_with_stats(&a, 2)?;
//! let x = DenseMatrix::filled(4, 8, 1.0);
//! let agg = ops::spmm_with_stats(&a2, &x)?.0;
//! assert_eq!(a2.get(0, 0), 2.0); // two 2-hop paths back to each vertex
//! assert_eq!(agg.get(0, 0), 4.0); // row sum of A² on the 4-ring
//! assert_eq!(pow_ops.mults, 16); // one SpGEMM: 4 rows × 2 neighbours × 2
//! # Ok(())
//! # }
//! ```

mod coo;
mod csr;
mod dense;
mod error;

pub mod ops;
pub mod parallel;
pub mod simd;
pub mod stats;
pub mod workspace;

pub use coo::CooMatrix;
pub use csr::{CsrMatrix, CHECKED_INVARIANTS};
pub use dense::DenseMatrix;
pub use error::{Result, SparseError};
pub use stats::OpStats;
pub use parallel::Parallelism;
